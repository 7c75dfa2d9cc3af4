"""``repro.kernels``: the batched, caching distance-kernel engine.

This package is the single entry point for all subsequence-distance work
in the reproduction. It unifies what used to be five private call paths
(MASS, STOMP, candidate scoring, the shapelet transform, and the BASE/FS
baselines) behind one facade:

* :class:`SeriesCache` — computes each series' FFT spectrum and rolling
  mean/std exactly once per discovery run and shares them across phases
  (matrix-profile computation → candidate evaluation → utility scoring →
  shapelet transform);
* batched kernels — :func:`batch_mass`, :func:`batch_min_distance`,
  :func:`batch_sliding_dot`, :func:`batch_distance_profile` replace
  per-query Python loops with vectorized multi-query FFT convolutions,
  all on one float64 path whose intermediates are blocked under a fixed
  byte budget;
* scalar kernels — :func:`mass`, :func:`distance_profile`,
  :func:`sliding_dot_product`, :func:`sliding_mean_std`,
  :func:`subsequence_distance` (keyword-only options), the reference
  implementations the batched paths are verified against;
* :class:`PerfCounters` — cheap counters (kernel calls, cache hits,
  FFT count, per-phase wall time) surfaced at
  ``DiscoveryResult.extra["perf"]``.

All kernels are bit-compatible with the historical implementations; the
old entry points (``repro.ts.distance``, ``repro.matrixprofile.mass``)
remain importable as thin deprecated shims.
"""

from __future__ import annotations

import warnings

from repro.kernels.cache import SeriesCache
from repro.kernels.rolling import RollingStats
from repro.kernels.store import SpectraStore
from repro.kernels.engine import (
    batch_distance_profile,
    batch_mass,
    batch_min_distance,
    batch_sliding_dot,
    direct_distance_profile,
    direct_min_distance,
    direct_window_dots,
    distance_profile,
    euclidean_distance,
    mass,
    raw_distance_profile,
    sliding_dot_product,
    sliding_mean_std,
    squared_euclidean,
    subsequence_distance,
)
from repro.kernels.perf import (
    NULL_PERF_COUNTERS,
    NullPerfCounters,
    PerfCounters,
)

__all__ = [
    "NULL_PERF_COUNTERS",
    "NullPerfCounters",
    "PerfCounters",
    "RollingStats",
    "SeriesCache",
    "SpectraStore",
    "batch_distance_profile",
    "batch_mass",
    "batch_min_distance",
    "batch_sliding_dot",
    "direct_distance_profile",
    "direct_min_distance",
    "direct_window_dots",
    "distance_profile",
    "euclidean_distance",
    "mass",
    "raw_distance_profile",
    "reset_deprecation_warnings",
    "sliding_dot_product",
    "sliding_mean_std",
    "squared_euclidean",
    "subsequence_distance",
    "warn_deprecated_once",
]

#: Shim call sites that have already warned this process.
_WARNED: set[str] = set()


def warn_deprecated_once(old: str, new: str) -> None:
    """Emit one :class:`DeprecationWarning` per process for a legacy path.

    The legacy distance entry points (``repro.ts.distance.*``,
    ``repro.matrixprofile.mass.mass``) call this before delegating to the
    kernel engine. Warning exactly once keeps migration pressure visible
    without flooding tight loops that still go through the old names.
    """
    if old in _WARNED:
        return
    _WARNED.add(old)
    warnings.warn(
        f"{old} is deprecated; use {new} instead",
        DeprecationWarning,
        stacklevel=3,
    )


def reset_deprecation_warnings() -> None:
    """Forget which shims have warned (test hook)."""
    _WARNED.clear()
