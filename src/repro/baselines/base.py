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
from repro.obs import NULL_TRACER, make_tracer
from repro.ts.series import Dataset
from repro.types import ParamsMixin, Shapelet


class ShapeletTransformClassifier(ShapeletModelPredictor, ParamsMixin, ABC):
    """Template: discover shapelets, then transform + scale + linear SVM.

    Subclasses implement :meth:`discover`; everything else (timing,
    transform, SVM, label round-tripping) is shared, and the fitted stack
    is the same :class:`~repro.core.model.ShapeletModel` IPS builds. A
    fit runs under one ``"counters"`` tracer, IPS's per-run instrument,
    so its stages and kernel tallies are measured by the same code.
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
        #: The fit's kernel tallies plus its discovery, transform and
        #: classify stage times (``tracer.perf()`` at the end of
        #: ``fit_dataset``) — the baseline analogue of
        #: ``DiscoveryResult.extra["perf"]``.
        self.perf_: dict | None = None

    @abstractmethod
    def discover(self, dataset: Dataset, tracer=NULL_TRACER) -> list[Shapelet]:
        """Return the discovered shapelets for a training dataset.

        A kernel cache made for the run counts into ``tracer.counters``
        (``SeriesCache(counters=tracer.counters)``); outside a fit the
        default :data:`~repro.obs.NULL_TRACER` leaves it private tallies.
        """

    def fit_dataset(self, dataset: Dataset) -> "ShapeletTransformClassifier":
        """Discover, then fit the shared transform + SVM stack."""
        tracer = make_tracer("counters")
        with tracer.stage("discovery"):
            shapelets = self.discover(dataset, tracer)
        self.discovery_seconds_ = tracer.times["discovery"]
        self.shapelets_ = shapelets
        self.model_ = ShapeletModel.fit(
            ShapeletTransform(shapelets),
            dataset,
            OneVsRestSVM(C=self.svm_c, seed=self.seed),
            "svm",
            tracer,
        )
        self.perf_ = tracer.finish()
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ShapeletTransformClassifier":
        """Fit on raw arrays."""
        return self.fit_dataset(Dataset(X=X, y=y))
