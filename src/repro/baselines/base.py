"""Shared scaffolding for shapelet-discovery baselines.

Every runnable baseline produces a list of :class:`repro.types.Shapelet`
and then classifies through the identical downstream stack used by IPS —
shapelet transform, standardization, linear SVM — so accuracy differences
isolate the *discovery* quality, exactly the comparison the paper makes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.classify.svm import OneVsRestSVM
from repro.core.model import ShapeletModel, ShapeletModelPredictor
from repro.core.transform import ShapeletTransform
from repro.kernels import PerfCounters
from repro.obs import NULL_TRACER
from repro.ts.series import Dataset
from repro.types import ParamsMixin, Shapelet


class ShapeletTransformClassifier(ShapeletModelPredictor, ParamsMixin, ABC):
    """Template: discover shapelets, then transform + scale + linear SVM.

    Subclasses implement :meth:`discover`; everything else (timing,
    transform, SVM, label round-tripping) is shared, and the fitted stack
    is the same :class:`~repro.core.model.ShapeletModel` IPS builds.
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
        self.model_ = ShapeletModel.fit(
            ShapeletTransform(shapelets),
            dataset,
            OneVsRestSVM(C=self.svm_c, seed=self.seed),
            "svm",
            NULL_TRACER,
            times,
        )
        self.perf_ = {**counters.snapshot(), "phase_seconds": times}
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ShapeletTransformClassifier":
        """Fit on raw arrays."""
        return self.fit_dataset(Dataset(X=X, y=y))
