"""Shapelet transform (Def. 7): embed series as distances to shapelets."""

from __future__ import annotations

import copy

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.kernels import SeriesCache, batch_min_distance
from repro.ts.dtw import dtw_distance
from repro.types import ParamsMixin, Shapelet

class ShapeletTransform(ParamsMixin):
    """Transforms series into the shapelet-distance feature space.

    Given discovered shapelets ``S_1..S_m``, a series ``T_j`` becomes the
    vector ``(dist(T_j, S_1), ..., dist(T_j, S_m))`` under the paper's
    Def.-4 distance. Classic vector classifiers then run on the embedding
    (Lines et al., KDD 2012).

    Parameters
    ----------
    metric:
        ``"euclidean"`` (Def. 4, the paper's choice) or ``"dtw"`` — the
        elastic variant motivated by the DTW-motif line of work the paper
        cites (Alaee et al. [1]): each feature becomes the minimum banded
        DTW distance between the shapelet and the series' windows of the
        same length (O(M N L^2), so reserve it for small problems).
    dtw_band:
        Sakoe-Chiba half-width for the DTW metric.
    cache:
        Optional :class:`repro.kernels.SeriesCache`. Per-row window
        statistics and FFT spectra of ``X`` are hoisted through it, so
        they are computed once per series instead of once per shapelet —
        and, when the cache is shared with discovery, reused across the
        whole pipeline. Without one, each :meth:`transform` call uses a
        private cache (stats still computed once per call, not per
        shapelet).
    """

    def __init__(
        self,
        shapelets: list[Shapelet] | None = None,
        metric: str = "euclidean",
        dtw_band: int | None = 5,
        cache: SeriesCache | None = None,
    ) -> None:
        if metric not in ("euclidean", "dtw"):
            raise ValidationError(f"unknown metric {metric!r}")
        self.metric = metric
        self.dtw_band = dtw_band
        self.cache = cache
        self.shapelets_: list[Shapelet] | None = None
        if shapelets is not None:
            self.fit(shapelets)

    def fit(self, shapelets: list[Shapelet]) -> "ShapeletTransform":
        """Bind the transform to a set of shapelets."""
        if not shapelets:
            raise ValidationError("at least one shapelet is required")
        self.shapelets_ = list(shapelets)
        return self

    def with_cache(self, cache: SeriesCache | None) -> "ShapeletTransform":
        """A copy bound to ``cache`` (or to none), sharing the shapelets."""
        bound = copy.copy(self)
        bound.cache = cache
        return bound

    @property
    def n_features(self) -> int:
        """Dimensionality of the embedding (= number of shapelets)."""
        if self.shapelets_ is None:
            raise NotFittedError("call fit before n_features")
        return len(self.shapelets_)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Embed every row of ``X``; returns ``(M, n_features)``."""
        if self.shapelets_ is None:
            raise NotFittedError("call fit before transform")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self.metric == "euclidean":
            cache = self.cache if self.cache is not None else SeriesCache()
            queries = [s.values for s in self.shapelets_]
            return batch_min_distance(queries, X, cache=cache)
        return self._transform_dtw(X)

    def _transform_dtw(self, X: np.ndarray) -> np.ndarray:
        """Minimum banded-DTW distance of each shapelet over the windows."""
        out = np.empty((X.shape[0], len(self.shapelets_)))
        for i, shapelet in enumerate(self.shapelets_):
            length = shapelet.length
            if length > X.shape[1]:
                raise ValidationError(
                    f"shapelet {i} longer than the series ({length} > {X.shape[1]})"
                )
            for j in range(X.shape[0]):
                windows = np.lib.stride_tricks.sliding_window_view(X[j], length)
                # Stride by half the length: full enumeration under DTW is
                # O(N L^2); the band makes windows overlap-tolerant anyway.
                step = max(1, length // 2)
                best = min(
                    dtw_distance(shapelet.values, w, band=self.dtw_band)
                    for w in windows[::step]
                )
                out[j, i] = best**2 / length  # keep Def.-4 scaling
        return out
