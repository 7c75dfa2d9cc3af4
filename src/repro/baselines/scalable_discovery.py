"""SD: scalable shapelet discovery via distance-based clustering.

Grabocka et al. (KAIS 2016) prune similar candidates by clustering them
and keeping only cluster prototypes. Here: sample subsequences per class,
k-means-cluster them per (class, length), score each centroid by exact
information gain, keep the best k per class, classify with the shared
transform stack.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ShapeletTransformClassifier
from repro.baselines.quality import best_information_gain
from repro.classify.kmeans import KMeans
from repro.exceptions import ValidationError
from repro.instanceprofile.sampling import resolve_lengths
from repro.kernels import distance_profile
from repro.obs import NULL_TRACER
from repro.ts.series import Dataset
from repro.types import Shapelet

DEFAULT_LENGTH_RATIOS: tuple[float, ...] = (0.2, 0.4)


class ScalableDiscovery(ShapeletTransformClassifier):
    """SD classifier.

    Parameters
    ----------
    k:
        Shapelets kept per class.
    n_clusters:
        Clusters (candidate prototypes) per (class, length).
    samples_per_class:
        Subsequences sampled per (class, length) before clustering.
    """

    def __init__(
        self,
        k: int = 5,
        n_clusters: int = 10,
        samples_per_class: int = 100,
        length_ratios: tuple[float, ...] = DEFAULT_LENGTH_RATIOS,
        svm_c: float = 1.0,
        seed: int | None = 0,
    ) -> None:
        super().__init__(svm_c=svm_c, seed=seed)
        if k < 1 or n_clusters < 1 or samples_per_class < 1:
            raise ValidationError("k, n_clusters, samples_per_class must be >= 1")
        self.k = k
        self.n_clusters = n_clusters
        self.samples_per_class = samples_per_class
        self.length_ratios = length_ratios

    def discover(self, dataset: Dataset, tracer=NULL_TRACER) -> list[Shapelet]:
        """Cluster-prototype discovery."""
        if dataset.n_classes < 2:
            raise ValidationError("SD requires at least 2 classes")
        rng = np.random.default_rng(self.seed)
        lengths = resolve_lengths(dataset.series_length, self.length_ratios)
        shapelets: list[Shapelet] = []
        for label in range(dataset.n_classes):
            rows = dataset.class_indices(label)
            prototypes: list[np.ndarray] = []
            for length in lengths:
                if length > dataset.series_length:
                    continue
                samples = []
                for _ in range(self.samples_per_class):
                    row = int(rng.choice(rows))
                    start = int(rng.integers(dataset.series_length - length + 1))
                    samples.append(dataset.X[row, start : start + length])
                km = KMeans(
                    n_clusters=min(self.n_clusters, len(samples)), seed=rng
                ).fit(np.vstack(samples))
                prototypes.extend(km.centers_)
            scored: list[tuple[float, np.ndarray]] = []
            for proto in prototypes:
                distances = np.array(
                    [
                        distance_profile(proto, dataset.X[t]).min() / proto.size
                        for t in range(dataset.n_series)
                    ]
                )
                gain, _threshold = best_information_gain(distances, dataset.y)
                scored.append((gain, proto))
            scored.sort(key=lambda item: -item[0])
            for gain, proto in scored[: self.k]:
                shapelets.append(
                    Shapelet(values=proto.copy(), label=label, score=-gain)
                )
        if not shapelets:
            raise ValidationError("SD found no shapelets")
        return shapelets
