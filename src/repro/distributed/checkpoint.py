"""Checkpoint store for distributed candidate generation.

Candidate generation dominates discovery cost, so losing a long run to a
late failure is expensive. The store persists each completed work unit's
candidates under a run directory (one ``.npz`` per unit plus a
``manifest.json``); a re-run against the same dataset/config resumes from
the completed units and recomputes only what is missing.

Layout::

    <run_dir>/
        manifest.json          # run fingerprint (seed, q_n, dataset shape)
        unit_<key>.npz         # candidate values + JSON metadata per unit

Unit keys embed the unit's derived seed, so any change to the master seed
or sampling parameters changes every key and stale entries are simply
never matched. The manifest is a second guard (:func:`repro.io.check_manifest`):
resuming into a directory whose fingerprint differs raises
:class:`repro.exceptions.CheckpointError` instead of silently merging
incompatible pools. Writes follow :func:`repro.io.atomic_write`; the
store is a cache, so an unreadable entry is deleted and recomputed
rather than fatal (docs/robustness.md, "Crash-safe writes").
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.distributed.executor import WorkUnit
from repro.exceptions import CheckpointError
from repro.io import atomic_write, check_manifest, sweep_dead_temp_files
from repro.types import Candidate, CandidateKind

_MANIFEST = "manifest.json"


def unit_key(unit: WorkUnit) -> str:
    """Stable identifier of a work unit within a run."""
    return f"{unit.label:03d}-{unit.sample_id:04d}-{int(unit.seed) & 0xFFFFFFFFFFFFFFFF:016x}"


class CheckpointStore:
    """Persist and restore per-unit candidate lists under a run dir."""

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        sweep_dead_temp_files(self.run_dir)

    def _unit_path(self, key: str) -> Path:
        return self.run_dir / f"unit_{key}.npz"

    # -- manifest ---------------------------------------------------------

    def check_manifest(self, fingerprint: dict) -> None:
        """Write the run fingerprint, or verify it matches an existing one.

        Raises :class:`CheckpointError` when the directory already holds a
        manifest for a different run (different seed/config/dataset).
        """
        check_manifest(self.run_dir / _MANIFEST, fingerprint, CheckpointError, "run")

    # -- unit results -----------------------------------------------------

    def has(self, key: str) -> bool:
        """Whether a completed result is stored for ``key``."""
        return self._unit_path(key).exists()

    def completed_keys(self) -> set[str]:
        """Keys of every unit result present in the store."""
        return {
            path.stem[len("unit_"):]
            for path in self.run_dir.glob("unit_*.npz")
        }

    def save(self, key: str, candidates: list[Candidate]) -> None:
        """Atomically persist one unit's candidate list.

        Raises :class:`CheckpointError` when the entry cannot be written.
        """
        meta = [
            {
                "label": candidate.label,
                "kind": candidate.kind.value,
                "source_instance": candidate.source_instance,
                "start": candidate.start,
                "sample_id": candidate.sample_id,
            }
            for candidate in candidates
        ]
        arrays = {
            f"values_{i}": candidate.values
            for i, candidate in enumerate(candidates)
        }
        arrays["meta"] = np.array(json.dumps(meta))
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        atomic_write(self._unit_path(key), buffer.getvalue(), CheckpointError)

    def load(self, key: str) -> list[Candidate] | None:
        """Restore one unit's candidates, or ``None`` if absent/corrupt.

        A corrupt entry (killed mid-write before the atomic rename ever
        happened, disk trouble, ...) is deleted and reported as missing so
        the unit is simply recomputed.
        """
        path = self._unit_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                return [
                    Candidate(
                        values=data[f"values_{i}"],
                        label=int(entry["label"]),
                        kind=CandidateKind(entry["kind"]),
                        source_instance=int(entry["source_instance"]),
                        start=int(entry["start"]),
                        sample_id=int(entry["sample_id"]),
                    )
                    for i, entry in enumerate(meta)
                ]
        except Exception:  # noqa: BLE001 - any unreadable entry => recompute
            try:
                path.unlink()
            except OSError:
                pass
            return None
