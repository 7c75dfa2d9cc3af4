"""Persistent, content-addressed on-disk cache of series FFT spectra.

A :class:`SpectraStore` lets *separate processes and separate runs* share
the expensive half of every sliding dot product: the padded real FFT of
each series. The in-memory :class:`~repro.kernels.SeriesCache` already
deduplicates spectra within one run, but its hit rate across runs is 0%
by construction — every process starts cold. Pointing runs at the same
store directory makes repeated discovery over the same dataset skip the
forward FFTs entirely.

Storage format: one entry = two files, ``<key>.npy`` (the complex
spectrum, ``np.save`` format) and ``<key>.json`` (a sidecar with the
payload's SHA-256 checksum plus the shape/dtype/FFT-size metadata).
Writes follow :func:`repro.io.atomic_write`, payload before sidecar. The
store is a cache: a read that fails its checksum unlinks the entry and
reports a miss, so it is recomputed, never served (docs/robustness.md,
"Crash-safe writes").

Invalidation is content-addressed: the key is a SHA-256 over the series'
raw bytes, its shape, the FFT size, the compute dtype, and the scipy
version (FFT output bits may change across scipy releases). Changing any
of these yields a different key, so stale entries are unreachable rather
than deleted — prune the directory by age or size externally if it
grows (entries are only ever re-created identically).
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

import numpy as np
import scipy

from repro.exceptions import SpectraStoreError
from repro.io import atomic_write, sha256_bytes, sweep_dead_temp_files

#: Bumped whenever the entry layout changes incompatibly; part of the key,
#: so old-format entries simply become unreachable.
STORE_FORMAT_VERSION = 1


def content_digest(array: np.ndarray) -> str:
    """SHA-256 of an array's raw bytes (C-order), its shape and dtype."""
    contiguous = np.ascontiguousarray(array)
    return sha256_bytes(
        str(contiguous.shape).encode()
        + contiguous.dtype.str.encode()
        + contiguous.tobytes()
    )


def spectrum_key(array_digest: str, n_fft: int, dtype: np.dtype) -> str:
    """The store key of one (series content, FFT size, precision) triple."""
    material = "|".join(
        (
            f"v{STORE_FORMAT_VERSION}",
            array_digest,
            str(n_fft),
            np.dtype(dtype).str,
            scipy.__version__,
        )
    )
    return sha256_bytes(material.encode())


class SpectraStore:
    """Checksummed on-disk spectrum cache, shared across runs.

    Parameters
    ----------
    directory:
        Store location; created (with parents) if missing.

    The store is deliberately dumb: ``load`` returns the spectrum or
    ``None``, ``save`` persists one, and all integrity handling is
    internal. Hit/miss accounting lives in the
    :class:`~repro.kernels.PerfCounters` of the calling
    :class:`~repro.kernels.SeriesCache`, which is the only intended
    caller. Concurrent writers are safe: entries are content-addressed,
    so two processes racing on the same key write identical payloads and
    whichever rename lands last is a no-op.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SpectraStoreError(
                f"cannot create spectra store at {self.directory}: {exc}"
            ) from exc
        if not self.directory.is_dir():
            raise SpectraStoreError(
                f"spectra store path {self.directory} is not a directory"
            )
        sweep_dead_temp_files(self.directory)

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.directory / f"{key}.npy", self.directory / f"{key}.json"

    def __len__(self) -> int:
        """Number of (possibly unverified) entries in the store."""
        return sum(1 for _ in self.directory.glob("*.json"))

    def _quarantine(self, key: str) -> None:
        """Best-effort removal of a corrupt entry so it is recomputed."""
        for path in self._paths(key):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def load(self, key: str) -> np.ndarray | None:
        """The stored spectrum for ``key``, or ``None`` on miss/corruption."""
        payload_path, sidecar_path = self._paths(key)
        try:
            sidecar = json.loads(sidecar_path.read_text())
            payload = payload_path.read_bytes()
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        expected = sidecar.get("sha256") if isinstance(sidecar, dict) else None
        if expected != sha256_bytes(payload):
            self._quarantine(key)
            return None
        try:
            spectrum = np.load(io.BytesIO(payload), allow_pickle=False)
        except (OSError, ValueError):
            self._quarantine(key)
            return None
        return spectrum

    def save(self, key: str, spectrum: np.ndarray) -> None:
        """Persist one spectrum atomically (payload first, then sidecar).

        Ordering matters for crash safety: a reader only trusts a payload
        its sidecar vouches for, so the sidecar lands last. Raises
        :class:`SpectraStoreError` when the store cannot be written.
        """
        payload_path, sidecar_path = self._paths(key)
        buffer = io.BytesIO()
        np.save(buffer, spectrum, allow_pickle=False)
        payload = buffer.getvalue()
        sidecar = {
            "sha256": sha256_bytes(payload),
            "shape": list(spectrum.shape),
            "dtype": spectrum.dtype.str,
            "scipy": scipy.__version__,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        atomic_write(payload_path, payload, SpectraStoreError)
        atomic_write(
            sidecar_path,
            (json.dumps(sidecar, sort_keys=True) + "\n").encode(),
            SpectraStoreError,
        )


__all__ = [
    "STORE_FORMAT_VERSION",
    "SpectraStore",
    "content_digest",
    "spectrum_key",
]
