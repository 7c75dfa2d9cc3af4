"""Per-dimension IPS discovery + concatenated transform for multivariate TSC."""

from __future__ import annotations

import numpy as np

from repro.classify.scaler import StandardScaler
from repro.classify.svm import OneVsRestSVM
from repro.core.config import IPSConfig
from repro.core.pipeline import IPS
from repro.core.transform import ShapeletTransform
from repro.exceptions import EmptyPoolError, NotFittedError, ValidationError
from repro.multivariate.dataset import MultivariateDataset
from repro.types import Shapelet


class MultivariateIPSClassifier:
    """IPS for multivariate TSC (the paper's stated future work).

    Strategy: run the univariate IPS discovery independently on every
    dimension (each dimension sees the shared labels), then embed an
    instance as the concatenation of its per-dimension shapelet-transform
    features and classify with one linear SVM. Dimensions whose
    discovery finds no candidates (:class:`~repro.exceptions.EmptyPoolError`,
    e.g. a degenerate channel) are skipped with a record in
    :attr:`skipped_dimensions_`; any other error propagates.

    Parameters
    ----------
    config:
        Per-dimension IPS configuration; ``k`` shapelets per class are
        discovered in *each* dimension.
    """

    def __init__(self, config: IPSConfig | None = None) -> None:
        self.config = config or IPSConfig()
        self.shapelets_per_dim_: dict[int, list[Shapelet]] | None = None
        self.skipped_dimensions_: list[int] = []
        self._transforms: dict[int, ShapeletTransform] = {}
        self._scaler: StandardScaler | None = None
        self._svm: OneVsRestSVM | None = None
        self._classes: np.ndarray | None = None

    def fit_dataset(self, dataset: MultivariateDataset) -> "MultivariateIPSClassifier":
        """Discover per dimension, then fit the joint SVM."""
        self.shapelets_per_dim_ = {}
        self.skipped_dimensions_ = []
        self._transforms = {}
        feature_blocks: list[np.ndarray] = []
        for dim in range(dataset.n_dimensions):
            uni = dataset.dimension(dim)
            try:
                result = IPS(self.config).discover(uni)
            except EmptyPoolError:  # degenerate channel: skip it
                self.skipped_dimensions_.append(dim)
                continue
            self.shapelets_per_dim_[dim] = result.shapelets
            transform = ShapeletTransform(result.shapelets)
            self._transforms[dim] = transform
            feature_blocks.append(transform.transform(uni.X))
        if not feature_blocks:
            raise ValidationError("discovery failed on every dimension")
        features = np.hstack(feature_blocks)
        self._scaler = StandardScaler()
        scaled = self._scaler.fit_transform(features)
        self._svm = OneVsRestSVM(C=self.config.svm_c, seed=self.config.seed)
        self._svm.fit(scaled, dataset.y)
        self._classes = dataset.classes_
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MultivariateIPSClassifier":
        """Fit on a raw ``(M, D, N)`` array."""
        return self.fit_dataset(MultivariateDataset(X=X, y=y))

    def _features(self, X: np.ndarray) -> np.ndarray:
        blocks = [
            self._transforms[dim].transform(X[:, dim, :])
            for dim in sorted(self._transforms)
        ]
        return np.hstack(blocks)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels (original label values) for ``(M, D, N)`` input."""
        if self._svm is None or self._scaler is None or self._classes is None:
            raise NotFittedError("call fit before predict")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3:
            raise ValidationError(f"expected (M, D, N) input, got shape {X.shape}")
        features = self._scaler.transform(self._features(X))
        internal = self._svm.predict(features)
        return self._classes[internal]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy against original-valued labels."""
        from repro.classify.metrics import accuracy_score

        return accuracy_score(np.asarray(y, dtype=np.int64), self.predict(X))

    @property
    def n_shapelets(self) -> int:
        """Total shapelets across all dimensions."""
        if self.shapelets_per_dim_ is None:
            raise NotFittedError("call fit before n_shapelets")
        return sum(len(v) for v in self.shapelets_per_dim_.values())
