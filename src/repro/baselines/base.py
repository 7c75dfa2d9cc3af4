"""Shared scaffolding for shapelet-discovery baselines.

Every runnable baseline produces a list of :class:`repro.types.Shapelet`
and then classifies through the identical downstream stack used by IPS —
shapelet transform, standardization, linear SVM — so accuracy differences
isolate the *discovery* quality, exactly the comparison the paper makes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.classify.scaler import StandardScaler
from repro.classify.svm import OneVsRestSVM
from repro.core.transform import ShapeletTransform
from repro.exceptions import NotFittedError
from repro.kernels import PerfCounters
from repro.obs import NULL_TRACER
from repro.ts.series import Dataset
from repro.types import ParamsMixin, Shapelet


class ShapeletTransformClassifier(ParamsMixin, ABC):
    """Template: discover shapelets, then transform + scale + linear SVM.

    Subclasses implement :meth:`discover`; everything else (timing,
    transform, SVM, label round-tripping) is shared.
    """

    def __init__(
        self, svm_c: float = 1.0, seed: int | None = 0, budget=None
    ) -> None:
        self.svm_c = svm_c
        self.seed = seed
        #: Optional :class:`repro.core.budget.Budget`; budget-aware
        #: baselines check it inside their discovery loops and set
        #: :attr:`completed_` to False on anytime truncation.
        self.budget = budget
        self.completed_: bool = True
        self.shapelets_: list[Shapelet] | None = None
        self.discovery_seconds_: float = float("nan")
        #: Live counters a subclass's ``discover`` can report kernel-cache
        #: work into (``SeriesCache(counters=self.perf_counters_)``).
        self.perf_counters_: PerfCounters = PerfCounters()
        #: Snapshot of :attr:`perf_counters_` plus the discovery, transform
        #: and classify stage times, taken at the end of ``fit_dataset`` —
        #: the baseline analogue of ``DiscoveryResult.extra["perf"]``.
        self.perf_: dict | None = None
        self._transform: ShapeletTransform | None = None
        self._scaler: StandardScaler | None = None
        self._svm: OneVsRestSVM | None = None
        self._dataset: Dataset | None = None

    @abstractmethod
    def discover(self, dataset: Dataset) -> list[Shapelet]:
        """Return the discovered shapelets for a training dataset."""

    def fit_dataset(self, dataset: Dataset) -> "ShapeletTransformClassifier":
        """Discover, then fit the shared transform + SVM stack."""
        counters = self.perf_counters_ = PerfCounters()
        times: dict[str, float] = {}
        with NULL_TRACER.stage("discovery", times):
            shapelets = self.discover(dataset)
        self.discovery_seconds_ = times["discovery"]
        self.shapelets_ = shapelets
        self._dataset = dataset
        self._transform = ShapeletTransform(shapelets)
        self._scaler = StandardScaler()
        with NULL_TRACER.stage("transform", times):
            features = self._scaler.fit_transform(
                self._transform.transform(dataset.X)
            )
        self._svm = OneVsRestSVM(C=self.svm_c, seed=self.seed)
        with NULL_TRACER.stage("classify", times):
            self._svm.fit(features, dataset.y)
        self.perf_ = {**counters.snapshot(), "phase_seconds": times}
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ShapeletTransformClassifier":
        """Fit on raw arrays."""
        return self.fit_dataset(Dataset(X=X, y=y))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels in the caller's original label values."""
        if self._svm is None or self._transform is None or self._dataset is None:
            raise NotFittedError("call fit before predict")
        features = self._scaler.transform(self._transform.transform(X))
        internal = self._svm.predict(features)
        return self._dataset.classes_[internal]

    @property
    def classes_(self) -> np.ndarray:
        """Original-valued class labels, sorted (Predictor contract)."""
        if self._dataset is None:
            raise NotFittedError("call fit before inspecting classes")
        return self._dataset.classes_

    def _inner_scores(self, X: np.ndarray, method: str) -> np.ndarray:
        if self._svm is None or self._transform is None or self._dataset is None:
            raise NotFittedError(f"call fit before {method}")
        features = self._scaler.transform(self._transform.transform(X))
        # The SVM is trained on internal labels 0..C-1 (positions of
        # classes_), so its columns already follow the original order.
        return np.asarray(getattr(self._svm, method)(features), dtype=np.float64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-class probabilities, ``(M, C)`` in :attr:`classes_` order."""
        return self._inner_scores(X, "predict_proba")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class decision values, ``(M, C)`` in :attr:`classes_` order."""
        return self._inner_scores(X, "decision_function")

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy against original-valued labels."""
        from repro.classify.metrics import accuracy_score

        return accuracy_score(np.asarray(y, dtype=np.int64), self.predict(X))
