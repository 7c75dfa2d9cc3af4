"""Per-cell result files and the campaign manifest.

Layout of a campaign directory::

    <campaign_dir>/
        manifest.json            # fingerprint: spec + retry policy + fault plan
        journal.jsonl            # append-only event log (see journal.py)
        cells/
            <cell_id>.json       # one atomic, checksummed result per cell

Cell files are written with :func:`repro.io.atomic_write`, contents are
deterministic (sorted keys), and every file's SHA-256 is recorded — in
the journal's ``cell_finished`` event at write time, and again in the
report manifest at collection time. Cell files are evidence: loading
verifies the recorded digest, and a mismatch (torn copy, bit rot, a file
from a different run) renames the file aside with a warning and reports
the cell as missing so the runner recomputes it — corruption costs one
cell, never the campaign (docs/robustness.md, "Crash-safe writes").

The campaign ``manifest.json`` is a :func:`repro.io.check_manifest`
fingerprint: resuming into a directory whose fingerprint differs raises
:class:`repro.exceptions.CampaignError` instead of silently merging
results computed under different settings.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

from repro.exceptions import CampaignError
from repro.io import (
    atomic_write,
    check_manifest,
    read_json,
    sha256_bytes,
    sweep_dead_temp_files,
)

#: Bumped whenever the cell-file layout changes incompatibly.
CAMPAIGN_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_CELLS = "cells"


class CellStore:
    """Atomic, checksummed per-cell result files under a campaign dir."""

    def __init__(self, campaign_dir: str | Path) -> None:
        self.campaign_dir = Path(campaign_dir)
        self.cells_dir = self.campaign_dir / _CELLS
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        sweep_dead_temp_files(self.campaign_dir)
        sweep_dead_temp_files(self.cells_dir)

    # -- manifest ---------------------------------------------------------

    def check_manifest(self, fingerprint: dict) -> None:
        """Write the campaign fingerprint, or verify it matches.

        Raises :class:`CampaignError` when the directory already belongs
        to a campaign with a different spec, retry policy, or fault plan
        — results computed under different settings must never merge.
        """
        check_manifest(
            self.campaign_dir / _MANIFEST, fingerprint, CampaignError, "campaign"
        )

    def read_manifest(self) -> dict:
        """The stored fingerprint (typed error when absent/unreadable)."""
        path = self.campaign_dir / _MANIFEST
        if not path.exists():
            raise CampaignError(
                f"{self.campaign_dir} has no campaign manifest; "
                "was it created by `repro campaign run`?"
            )
        manifest = read_json(path, CampaignError)
        if not isinstance(manifest, dict):
            raise CampaignError(f"campaign manifest at {path} is not an object")
        return manifest

    # -- cell files -------------------------------------------------------

    def cell_path(self, cell_id: str) -> Path:
        """Result-file path of one cell."""
        return self.cells_dir / f"{cell_id}.json"

    def save_cell(self, cell_id: str, record: dict) -> str:
        """Atomically persist one cell record; returns its SHA-256.

        Raises :class:`CampaignError` when the cell file cannot be written.
        """
        payload = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
        atomic_write(self.cell_path(cell_id), payload, CampaignError)
        return sha256_bytes(payload)

    def load_cell(self, cell_id: str, expected_sha: str | None = None) -> dict | None:
        """Restore one cell record, or ``None`` when it must be recomputed.

        A missing file is simply ``None``. An unreadable file, or one
        whose digest does not match ``expected_sha`` (recorded in the
        journal at write time), is *quarantined* — renamed aside with a
        warning — and reported as missing, so corruption is visible but
        never fatal.
        """
        path = self.cell_path(cell_id)
        if not path.exists():
            return None
        try:
            payload = path.read_bytes()
            if expected_sha is not None and sha256_bytes(payload) != expected_sha:
                raise ValueError(
                    f"checksum mismatch (expected {expected_sha[:12]}...)"
                )
            record = json.loads(payload.decode("utf-8"))
            if not isinstance(record, dict) or "payload" not in record:
                raise ValueError("not a cell record")
        except Exception as exc:  # noqa: BLE001 - any bad file => recompute
            self._quarantine_cell(path, exc)
            return None
        return record

    def _quarantine_cell(self, path: Path, reason: Exception) -> None:
        quarantined = path.with_name(path.name + ".quarantine")
        try:
            os.replace(path, quarantined)
            note = f"moved to {quarantined.name}"
        except OSError:
            note = "could not be moved aside"
        warnings.warn(
            f"cell result {path.name} is unusable ({reason}); {note}; "
            "the cell will be recomputed",
            RuntimeWarning,
            stacklevel=3,
        )

    def cell_ids(self) -> set[str]:
        """Ids of every cell file currently in the store."""
        return {path.stem for path in self.cells_dir.glob("*.json")}


__all__ = ["CAMPAIGN_FORMAT_VERSION", "CellStore"]
