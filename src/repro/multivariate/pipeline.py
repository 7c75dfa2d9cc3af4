"""Per-dimension IPS discovery + concatenated transform for multivariate TSC."""

from __future__ import annotations

import numpy as np

from repro.core.config import IPSConfig
from repro.core.model import ShapeletModel, ShapeletModelPredictor
from repro.core.pipeline import IPS, _finish_trace, _make_final_classifier
from repro.core.transform import ShapeletTransform
from repro.exceptions import EmptyPoolError, NotFittedError, ValidationError
from repro.kernels import NULL_PERF_COUNTERS, PerfCounters
from repro.multivariate.dataset import MultivariateDataset
from repro.obs import make_tracer, run_manifest
from repro.types import Shapelet


class ChannelShapeletTransform:
    """One fitted :class:`ShapeletTransform` per kept dimension.

    :meth:`transform` embeds an ``(M, D, N)`` array as the per-dimension
    shapelet features side by side, in dimension order.
    """

    def __init__(self, transforms: dict[int, ShapeletTransform]) -> None:
        self.transforms = dict(sorted(transforms.items()))

    def with_cache(self, cache) -> "ChannelShapeletTransform":
        """A copy whose per-dimension transforms are bound to ``cache``."""
        return ChannelShapeletTransform(
            {dim: t.with_cache(cache) for dim, t in self.transforms.items()}
        )

    @property
    def n_features(self) -> int:
        """Dimensionality of the embedding (shapelets over all dimensions)."""
        return sum(t.n_features for t in self.transforms.values())

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Embed every instance of an ``(M, D, N)`` array."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3:
            raise ValidationError(f"expected (M, D, N) input, got shape {X.shape}")
        return np.hstack(
            [t.transform(X[:, dim, :]) for dim, t in self.transforms.items()]
        )


class MultivariateIPSClassifier(ShapeletModelPredictor):
    """IPS for multivariate TSC (the paper's stated future work).

    Strategy: run the univariate IPS discovery independently on every
    dimension (each dimension sees the shared labels), then embed an
    instance as the concatenation of its per-dimension shapelet-transform
    features and classify it through the same
    :class:`~repro.core.model.ShapeletModel` stack as
    :class:`~repro.core.pipeline.IPSClassifier` (``config.final_classifier``,
    the linear SVM by default). Dimensions whose discovery finds no
    candidates (:class:`~repro.exceptions.EmptyPoolError`, e.g. a
    degenerate channel) are skipped with a record in
    :attr:`skipped_dimensions_`; any other error propagates.

    One fit runs under one tracer: every dimension's ``discover`` span,
    then the ``transform`` and ``classify`` stages, land in the same
    trace, which is finished (and in ``"trace+jsonl"`` written) once.

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
        #: Kernel tallies of every dimension's discovery plus the stage
        #: times of the whole fit (``None`` in ``"off"`` mode).
        self.perf_: dict | None = None

    def fit_dataset(self, dataset: MultivariateDataset) -> "MultivariateIPSClassifier":
        """Discover per dimension, then fit the joint classifier."""
        config = self.config
        tracer = make_tracer(config.observability)
        times: dict[str, float] = {}
        counters = PerfCounters() if config.observability != "off" else NULL_PERF_COUNTERS
        self.shapelets_per_dim_ = {}
        self.skipped_dimensions_ = []
        for dim in range(dataset.n_dimensions):
            discoverer = IPS(config)
            try:
                result = discoverer._discover(dataset.dimension(dim), tracer, times)
            except EmptyPoolError:  # degenerate channel: skip it
                self.skipped_dimensions_.append(dim)
                continue
            finally:
                if discoverer.perf_counters_ is not None:
                    counters.merge(discoverer.perf_counters_)
            self.shapelets_per_dim_[dim] = result.shapelets
        if not self.shapelets_per_dim_:
            raise ValidationError("discovery failed on every dimension")
        if tracer.active:
            tracer.manifest = run_manifest(config, dataset)
        transforms = {
            dim: ShapeletTransform(shapelets)
            for dim, shapelets in self.shapelets_per_dim_.items()
        }
        self.model_ = ShapeletModel.fit(
            ChannelShapeletTransform(transforms),
            dataset,
            _make_final_classifier(config),
            config.final_classifier,
            tracer,
            times,
        )
        self.perf_ = (
            {**counters.snapshot(), "phase_seconds": dict(times)}
            if counters.enabled
            else None
        )
        _finish_trace(tracer, self.perf_, config)
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MultivariateIPSClassifier":
        """Fit on a raw ``(M, D, N)`` array."""
        return self.fit_dataset(MultivariateDataset(X=X, y=y))

    @property
    def n_shapelets(self) -> int:
        """Total shapelets across all dimensions."""
        if self.shapelets_per_dim_ is None:
            raise NotFittedError("call fit before n_shapelets")
        return sum(len(v) for v in self.shapelets_per_dim_.values())
