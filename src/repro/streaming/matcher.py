"""Incremental sliding-minimum shapelet distances over a growing series.

:class:`StreamingMatcher` is the streaming half of the shapelet
transform: it holds one unbounded series, fed chunk-by-chunk, and
maintains for every shapelet the minimum Def.-4 distance over all
complete windows seen so far.

Bit-identity to the batch direct kernel
---------------------------------------
Every quantity is produced by the exact code the batch
:func:`~repro.kernels.direct_min_distance` runs:

* window sums of squares come from :class:`~repro.kernels.RollingStats`,
  whose chunk-extended cumulative sums are bit-identical to a one-shot
  ``cumsum`` (sequential accumulation — see :mod:`repro.kernels.rolling`);
* per-window dot products and distance profiles come from
  :func:`~repro.kernels.direct_window_dots` /
  :func:`~repro.kernels.direct_distance_profile`, evaluated on the same
  contiguous slices a batch call would see;
* the running minimum is updated per chunk — exact, because ``min`` over
  a partition of the windows equals ``min`` over all of them — and the
  raw (undivided) minimum is stored, with the ``/ length`` scaling
  applied once at read time, matching the batch
  ``profile.min() / q.size`` order of operations.

Consequently a series fed in chunks of *any* sizes (including one sample
at a time) yields exactly the bits of
``direct_min_distance(queries, series[None], cache=SeriesCache())`` —
the property test in ``tests/test_streaming_property.py`` pins this.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.kernels import RollingStats, direct_distance_profile
from repro.types import Shapelet


def _as_queries(shapelets) -> list[np.ndarray]:
    """Normalize a shapelet list (or raw 1-D arrays) to query arrays."""
    queries = []
    for i, shapelet in enumerate(shapelets):
        values = (
            shapelet.values
            if isinstance(shapelet, Shapelet)
            else np.asarray(shapelet, dtype=np.float64)
        )
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValidationError(
                f"shapelet {i} must be a non-empty 1-D array"
            )
        queries.append(values)
    if not queries:
        raise ValidationError("at least one shapelet is required")
    return queries


class StreamingMatcher:
    """Per-shapelet sliding minimum distances over an unbounded series.

    Parameters
    ----------
    shapelets:
        The shapelets to match — :class:`repro.types.Shapelet` instances
        or raw 1-D arrays.

    Notes
    -----
    Memory grows with the series (the full history is retained so every
    window can be scored exactly); appends are amortized O(chunk + new
    windows x shapelet length).
    """

    def __init__(self, shapelets) -> None:
        self._queries = _as_queries(shapelets)
        self._q_ssqs = [float(np.dot(q, q)) for q in self._queries]
        self.lengths = np.array([q.size for q in self._queries], dtype=np.int64)
        self._stats = RollingStats()
        #: Raw (undivided) minimum squared distance per shapelet; +inf
        #: until the first complete window of that shapelet's length.
        self._best_raw = np.full(len(self._queries), np.inf)
        #: Windows already scored per shapelet (next window start index).
        self._scored = np.zeros(len(self._queries), dtype=np.int64)

    @property
    def n_shapelets(self) -> int:
        """Number of shapelets being matched."""
        return len(self._queries)

    @property
    def n(self) -> int:
        """Samples of the series seen so far."""
        return self._stats.n

    @property
    def ready(self) -> bool:
        """True once every shapelet has at least one complete window."""
        return self._stats.n >= int(self.lengths.max())

    def append(self, chunk) -> None:
        """Extend the series and score every newly completed window.

        Accepts scalars, 0-D arrays, and 1-D chunks of any size
        (including size 1); empty chunks are a no-op.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim > 1:
            raise ValidationError(
                f"StreamingMatcher streams one series; got ndim={chunk.ndim}"
            )
        self._stats.append(chunk)
        series = self._stats.values
        for i, query in enumerate(self._queries):
            total = self._stats.n_windows(query.size)
            start = int(self._scored[i])
            if total <= start:
                continue
            ssq = self._stats.window_ssq(query.size, start, total)
            profile = direct_distance_profile(
                series, query, ssq, self._q_ssqs[i], start, total
            )
            best = profile.min()
            if best < self._best_raw[i]:
                self._best_raw[i] = best
            self._scored[i] = total

    def distances(self) -> np.ndarray:
        """Best Def.-4 distance per shapelet so far, shape ``(m,)``.

        Entries are ``+inf`` for shapelets longer than the series seen so
        far. The raw running minimum is divided by the shapelet length
        here — once, at read time — so the result carries the exact bits
        of the batch ``profile.min() / length``.
        """
        return self._best_raw / self.lengths

    def snapshot(self) -> dict:
        """JSON-friendly progress summary (samples, windows, readiness)."""
        return {
            "n_samples": int(self._stats.n),
            "n_shapelets": self.n_shapelets,
            "windows_scored": self._scored.tolist(),
            "ready": bool(self.ready),
        }


__all__ = ["StreamingMatcher"]
