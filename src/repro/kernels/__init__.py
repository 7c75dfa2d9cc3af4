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
  FFT count), one set per run owned by the run's tracer and surfaced at
  ``DiscoveryResult.extra["perf"]``.

Each distance definition has exactly one implementation, here.
"""

from __future__ import annotations

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
from repro.kernels.perf import PerfCounters

__all__ = [
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
    "sliding_dot_product",
    "sliding_mean_std",
    "squared_euclidean",
    "subsequence_distance",
]
