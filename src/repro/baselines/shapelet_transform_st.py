"""ST: the shapelet transform with information-gain full search.

Lines et al. (KDD 2012): enumerate candidates, score each by the
information gain of its order line against the full training set, select a
diverse top set, then classify on the transformed data. Enumeration is
capped by random sampling so the laptop-scale harness stays tractable; the
cap is recorded so benchmarks can report what was searched (DESIGN.md,
"No silent caps").
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ShapeletTransformClassifier
from repro.baselines.quality import best_information_gain
from repro.exceptions import ValidationError
from repro.instanceprofile.sampling import resolve_lengths
from repro.kernels import SeriesCache, batch_min_distance, subsequence_distance
from repro.obs import NULL_TRACER
from repro.ts.series import Dataset
from repro.types import Shapelet

DEFAULT_LENGTH_RATIOS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)


class ShapeletTransformST(ShapeletTransformClassifier):
    """ST classifier.

    Parameters
    ----------
    k:
        Shapelets kept per class.
    max_candidates:
        Cap on the number of sampled candidates (the classic ST enumerates
        all O(M N^2) subsequences; the cap keeps the harness tractable).
    similarity_reject:
        Candidates closer than this Def.-4 distance to an already-selected
        shapelet are rejected (self-similarity removal).
    """

    def __init__(
        self,
        k: int = 5,
        max_candidates: int = 300,
        length_ratios: tuple[float, ...] = DEFAULT_LENGTH_RATIOS,
        similarity_reject: float = 1e-3,
        svm_c: float = 1.0,
        seed: int | None = 0,
    ) -> None:
        super().__init__(svm_c=svm_c, seed=seed)
        if k < 1 or max_candidates < 1:
            raise ValidationError("k and max_candidates must be >= 1")
        self.k = k
        self.max_candidates = max_candidates
        self.length_ratios = length_ratios
        self.similarity_reject = similarity_reject
        self.n_candidates_searched_: int = 0

    def discover(self, dataset: Dataset, tracer=NULL_TRACER) -> list[Shapelet]:
        """Information-gain search over sampled candidates."""
        if dataset.n_classes < 2:
            raise ValidationError("ST requires at least 2 classes")
        rng = np.random.default_rng(self.seed)
        lengths = resolve_lengths(dataset.series_length, self.length_ratios)

        candidates: list[tuple[np.ndarray, int, int, int]] = []
        for _ in range(self.max_candidates):
            row = int(rng.integers(dataset.n_series))
            length = int(rng.choice(lengths))
            start = int(rng.integers(dataset.series_length - length + 1))
            candidates.append(
                (
                    dataset.X[row, start : start + length].copy(),
                    int(dataset.y[row]),
                    row,
                    start,
                )
            )
        self.n_candidates_searched_ = len(candidates)

        # One batched kernel pass scores every candidate against every
        # series (grouped by candidate length internally); the per-fit
        # cache computes the dataset matrix's spectra once per length
        # instead of once per (candidate, series) pair. The historical
        # ``distance_profile(values, X[t]).min() / len`` loop iterated
        # fresh ``X[t]`` views, which an identity-keyed cache can never
        # hit. Bit-identical to that loop by the engine's contract.
        fit_cache = SeriesCache()
        min_dists = batch_min_distance(
            [values for values, _label, _row, _start in candidates],
            dataset.X,
            cache=fit_cache,
        )
        scored: list[tuple[float, int]] = []
        for idx in range(len(candidates)):
            gain, _threshold = best_information_gain(min_dists[:, idx], dataset.y)
            scored.append((gain, idx))
        scored.sort(key=lambda item: -item[0])

        per_class_quota = {label: self.k for label in range(dataset.n_classes)}
        shapelets: list[Shapelet] = []
        for gain, idx in scored:
            values, label, row, start = candidates[idx]
            if per_class_quota[label] <= 0:
                continue
            duplicate = any(
                s.length == values.size
                and subsequence_distance(values, s.values, cache=fit_cache)
                < self.similarity_reject
                for s in shapelets
            )
            if duplicate:
                continue
            shapelets.append(
                Shapelet(
                    values=values,
                    label=label,
                    score=-gain,
                    source_instance=row,
                    start=start,
                )
            )
            per_class_quota[label] -= 1
            if all(q <= 0 for q in per_class_quota.values()):
                break
        if not shapelets:
            raise ValidationError("ST found no shapelets")
        return shapelets
