"""LTS: Learning Time-Series Shapelets (Grabocka et al., KDD 2014).

Shapelets are *learned* rather than searched: a set of shapelet vectors is
initialized from k-means centroids of training subsequences and optimized
jointly with a logistic model by gradient descent. The feature of series
``T`` w.r.t. shapelet ``S`` is the soft minimum of the per-window mean
squared distances,

    m = -(1/alpha) log sum_w exp(-alpha * d_w)

whose gradient distributes over windows by their softmax weights — the
differentiable surrogate of the paper's hard-min Def.-4 distance.

Unlike the transform-based methods, LTS classifies directly with its
logistic head, so this class implements its own fit/predict rather than
subclassing the shared transform stack.
"""

from __future__ import annotations

import numpy as np

from repro.classify.kmeans import KMeans
from repro.exceptions import NotFittedError, ValidationError
from repro.obs import NULL_TRACER
from repro.ts.series import Dataset
from repro.types import ParamsMixin, Shapelet


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


class LearningShapelets(ParamsMixin):
    """LTS classifier.

    Parameters
    ----------
    k_per_class:
        Learned shapelets per class.
    length_ratio:
        Shapelet length as a fraction of the series length.
    alpha:
        Soft-minimum sharpness (larger = closer to the hard min).
    lr, epochs, l2:
        Gradient-descent hyperparameters.
    seed:
        Reproducibility seed (k-means init, sampling).
    """

    def __init__(
        self,
        k_per_class: int = 5,
        length_ratio: float = 0.2,
        alpha: float = 25.0,
        lr: float = 0.2,
        epochs: int = 300,
        l2: float = 1e-3,
        seed: int | None = 0,
    ) -> None:
        if k_per_class < 1:
            raise ValidationError("k_per_class must be >= 1")
        if not 0.0 < length_ratio <= 1.0:
            raise ValidationError("length_ratio must be in (0, 1]")
        if alpha <= 0:
            raise ValidationError("alpha must be > 0")
        self.k_per_class = k_per_class
        self.length_ratio = length_ratio
        self.alpha = alpha
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        self.shapelets_: list[Shapelet] | None = None
        self.discovery_seconds_: float = float("nan")
        self._S: np.ndarray | None = None  # (n_shapelets, L)
        self._W: np.ndarray | None = None  # (n_classes, n_shapelets)
        self._b: np.ndarray | None = None
        self._dataset: Dataset | None = None

    def _init_shapelets(self, dataset: Dataset, length: int, rng) -> np.ndarray:
        """k-means centroids of sampled training subsequences."""
        n_shapelets = self.k_per_class * dataset.n_classes
        samples = []
        for _ in range(max(20 * n_shapelets, 100)):
            row = int(rng.integers(dataset.n_series))
            start = int(rng.integers(dataset.series_length - length + 1))
            samples.append(dataset.X[row, start : start + length])
        km = KMeans(n_clusters=n_shapelets, seed=rng).fit(np.vstack(samples))
        return km.centers_.copy()

    def _features_and_weights(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Soft-min features M (M_ij), window distances D, softmax weights."""
        S = self._S
        n, series_len = X.shape
        n_shp, L = S.shape
        windows = np.lib.stride_tricks.sliding_window_view(X, L, axis=1)
        # windows: (n, W, L); distances to each shapelet: (n, n_shp, W)
        w_sq = np.einsum("nwl,nwl->nw", windows, windows)
        s_sq = np.einsum("kl,kl->k", S, S)
        cross = np.einsum("nwl,kl->nkw", windows, S)
        D = (w_sq[:, None, :] - 2.0 * cross + s_sq[None, :, None]) / L
        # Soft minimum over windows.
        Z = -self.alpha * D
        Zmax = Z.max(axis=2, keepdims=True)
        E = np.exp(Z - Zmax)
        sumE = E.sum(axis=2, keepdims=True)
        M = -(Zmax[:, :, 0] + np.log(sumE[:, :, 0])) / self.alpha
        weights = E / sumE  # softmax over windows, (n, n_shp, W)
        return M, D, weights

    def fit_dataset(self, dataset: Dataset) -> "LearningShapelets":
        """Jointly learn shapelets and the logistic head."""
        times: dict[str, float] = {}
        with NULL_TRACER.stage("discovery", times):
            rng = np.random.default_rng(self.seed)
            length = max(4, int(round(self.length_ratio * dataset.series_length)))
            length = min(length, dataset.series_length)
            self._dataset = dataset
            self._S = self._init_shapelets(dataset, length, rng)
            n_classes = dataset.n_classes
            n_shp = self._S.shape[0]
            self._W = 0.01 * rng.standard_normal((n_classes, n_shp))
            self._b = np.zeros(n_classes)
            X, y = dataset.X, dataset.y
            n = X.shape[0]
            Y = np.zeros((n, n_classes))
            Y[np.arange(n), y] = 1.0
            L = self._S.shape[1]
            windows = np.lib.stride_tricks.sliding_window_view(X, L, axis=1)
            for _epoch in range(self.epochs):
                M, _D, weights = self._features_and_weights(X)
                logits = M @ self._W.T + self._b
                P = _softmax_rows(logits)
                G = (P - Y) / n  # (n, n_classes)
                grad_W = G.T @ M + self.l2 * self._W
                grad_b = G.sum(axis=0)
                # dL/dM: (n, n_shp)
                dM = G @ self._W
                # dM/dS via softmin weights: dD_w/dS_k = (2/L)(S_k - window_w)
                coeff = dM[:, :, None] * weights  # (n, n_shp, W)
                sum_coeff = coeff.sum(axis=(0, 2))  # (n_shp,)
                weighted_windows = np.einsum("nkw,nwl->kl", coeff, windows)
                grad_S = (2.0 / L) * (sum_coeff[:, None] * self._S - weighted_windows)
                self._W -= self.lr * grad_W
                self._b -= self.lr * grad_b
                self._S -= self.lr * grad_S
        self.discovery_seconds_ = times["discovery"]
        self.shapelets_ = [
            Shapelet(values=self._S[i].copy(), label=int(i // self.k_per_class) % n_classes)
            for i in range(n_shp)
        ]
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LearningShapelets":
        """Fit on raw arrays."""
        return self.fit_dataset(Dataset(X=X, y=y))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels in the caller's original label values."""
        if self._S is None or self._dataset is None:
            raise NotFittedError("call fit before predict")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        M, _D, _weights = self._features_and_weights(X)
        logits = M @ self._W.T + self._b
        internal = np.argmax(logits, axis=1)
        return self._dataset.classes_[internal]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy against original-valued labels."""
        from repro.classify.metrics import accuracy_score

        return accuracy_score(np.asarray(y, dtype=np.int64), self.predict(X))
