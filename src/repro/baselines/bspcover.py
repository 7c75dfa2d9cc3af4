"""BSPCOVER (Li et al., TKDE 2020): the paper's efficiency state of the art.

Pipeline reproduced from the description in [23]:

1. **Candidate generation** — subsequences of every training instance at
   the shared length-ratio grid (a stride bounds the enumeration);
2. **Bloom-filter pruning** — candidates whose SAX word has already been
   seen are duplicates of an earlier candidate and are skipped;
3. **Quality measurement** — each surviving candidate is evaluated against
   *every* training instance (Def.-4 distances) and scored by the
   information gain of its best split. This full evaluation is the cost
   the paper's Tables IV/V measure BSPCOVER by: it is inherently one to
   two orders of magnitude more work than IPS's sampled instance profile;
4. **p-cover selection** — candidates are greedily selected so every
   training instance is "covered" (correctly split) at least ``p`` times,
   with at most ``k`` shapelets per class.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ShapeletTransformClassifier
from repro.baselines.quality import best_information_gain
from repro.baselines.sax import sax_word
from repro.exceptions import ValidationError
from repro.filters.bloom import BloomFilter
from repro.instanceprofile.sampling import resolve_lengths
from repro.kernels import distance_profile
from repro.obs import NULL_TRACER
from repro.ts.series import Dataset
from repro.types import Shapelet

DEFAULT_LENGTH_RATIOS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)


class BSPCover(ShapeletTransformClassifier):
    """BSPCOVER classifier.

    Parameters
    ----------
    k:
        Maximum shapelets per class.
    p:
        Cover multiplicity: each training instance should be covered by at
        least this many selected shapelets.
    length_ratios:
        Candidate lengths as fractions of the series length.
    stride_fraction:
        Candidate enumeration stride as a fraction of the window length
        (1.0 = non-overlapping; smaller = denser and slower).
    sax_segments, sax_alphabet:
        SAX parameters for the Bloom-filter dedup.
    """

    def __init__(
        self,
        k: int = 5,
        p: int = 2,
        length_ratios: tuple[float, ...] = DEFAULT_LENGTH_RATIOS,
        stride_fraction: float = 0.5,
        sax_segments: int = 8,
        sax_alphabet: int = 4,
        svm_c: float = 1.0,
        seed: int | None = 0,
    ) -> None:
        super().__init__(svm_c=svm_c, seed=seed)
        if k < 1 or p < 1:
            raise ValidationError("k and p must be >= 1")
        if not 0.0 < stride_fraction <= 1.0:
            raise ValidationError("stride_fraction must be in (0, 1]")
        self.k = k
        self.p = p
        self.length_ratios = length_ratios
        self.stride_fraction = stride_fraction
        self.sax_segments = sax_segments
        self.sax_alphabet = sax_alphabet

    def _generate(self, dataset: Dataset) -> list[tuple[np.ndarray, int, int, int]]:
        """Bloom-deduplicated candidates: (values, label, instance, start)."""
        lengths = resolve_lengths(dataset.series_length, self.length_ratios)
        bloom = BloomFilter.with_capacity(
            max(64, dataset.n_series * dataset.series_length), fp_rate=0.01
        )
        candidates: list[tuple[np.ndarray, int, int, int]] = []
        for row_idx in range(dataset.n_series):
            series = dataset.X[row_idx]
            label = int(dataset.y[row_idx])
            for length in lengths:
                if length > series.size:
                    continue
                stride = max(1, int(round(self.stride_fraction * length)))
                for start in range(0, series.size - length + 1, stride):
                    values = series[start : start + length]
                    word = (length,) + sax_word(
                        values, self.sax_segments, self.sax_alphabet
                    )
                    if word in bloom:
                        continue  # similar candidate already kept
                    bloom.add(word)
                    candidates.append((values.copy(), label, row_idx, start))
        return candidates

    def discover(self, dataset: Dataset, tracer=NULL_TRACER) -> list[Shapelet]:
        """Full BSPCOVER discovery."""
        if dataset.n_classes < 2:
            raise ValidationError("BSPCOVER requires at least 2 classes")
        candidates = self._generate(dataset)
        if not candidates:
            raise ValidationError("BSPCOVER generated no candidates")

        # Score every candidate against every training instance.
        scored: list[tuple[float, float, int]] = []  # (gain, threshold, idx)
        all_distances = np.empty((len(candidates), dataset.n_series))
        for c_idx, (values, _label, _row, _start) in enumerate(candidates):
            for t_idx in range(dataset.n_series):
                profile = distance_profile(values, dataset.X[t_idx])
                all_distances[c_idx, t_idx] = profile.min() / values.size
            gain, threshold = best_information_gain(all_distances[c_idx], dataset.y)
            scored.append((gain, threshold, c_idx))
        scored.sort(key=lambda item: -item[0])

        # Greedy p-cover selection.
        cover_counts = np.zeros(dataset.n_series, dtype=np.int64)
        per_class_quota = {label: self.k for label in range(dataset.n_classes)}
        shapelets: list[Shapelet] = []
        for gain, threshold, c_idx in scored:
            values, label, row_idx, start = candidates[c_idx]
            if per_class_quota[label] <= 0:
                continue
            near = all_distances[c_idx] <= threshold
            correct = near == (dataset.y == label)
            newly_covered = correct & (cover_counts < self.p)
            if not np.any(newly_covered) and cover_counts.min() >= self.p:
                continue
            if gain <= 0.0:
                break
            cover_counts[correct] += 1
            per_class_quota[label] -= 1
            shapelets.append(
                Shapelet(
                    values=values,
                    label=label,
                    score=-gain,
                    source_instance=row_idx,
                    start=start,
                )
            )
            if all(q <= 0 for q in per_class_quota.values()):
                break
        if not shapelets:
            # Degenerate data: fall back to the single best candidate.
            gain, threshold, c_idx = scored[0]
            values, label, row_idx, start = candidates[c_idx]
            shapelets.append(
                Shapelet(
                    values=values,
                    label=label,
                    score=-gain,
                    source_instance=row_idx,
                    start=start,
                )
            )
        return shapelets
