"""Fast Shapelets (Rakthanmanon & Keogh, SDM 2013).

The FS column of Table VI: subsequences are reduced to SAX words; several
rounds of *random masking* project the words onto random symbol subsets;
collision counts per class estimate each word's distinguishing power
(words frequent in one class and rare elsewhere score high); the top-scored
candidates are refined with exact information gain and the best per class
become shapelets.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.baselines.base import ShapeletTransformClassifier
from repro.baselines.quality import best_information_gain
from repro.baselines.sax import sax_word
from repro.exceptions import ValidationError
from repro.instanceprofile.sampling import resolve_lengths
from repro.kernels import SeriesCache, batch_min_distance
from repro.obs import NULL_TRACER
from repro.ts.series import Dataset
from repro.types import Shapelet

DEFAULT_LENGTH_RATIOS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)


class FastShapelets(ShapeletTransformClassifier):
    """FS classifier.

    Parameters
    ----------
    k:
        Shapelets per class.
    n_masking_rounds:
        Random-projection iterations ``r``.
    mask_size:
        Symbols masked out per round.
    refine_top:
        Candidates per class refined with exact information gain.
    sax_segments, sax_alphabet:
        SAX word shape.
    stride_fraction:
        Enumeration stride as a fraction of the window length.
    """

    def __init__(
        self,
        k: int = 5,
        n_masking_rounds: int = 10,
        mask_size: int = 3,
        refine_top: int = 10,
        length_ratios: tuple[float, ...] = DEFAULT_LENGTH_RATIOS,
        sax_segments: int = 8,
        sax_alphabet: int = 4,
        stride_fraction: float = 0.5,
        svm_c: float = 1.0,
        seed: int | None = 0,
        budget=None,
    ) -> None:
        super().__init__(svm_c=svm_c, seed=seed, budget=budget)
        if k < 1 or n_masking_rounds < 1 or refine_top < 1:
            raise ValidationError("k, n_masking_rounds, refine_top must be >= 1")
        if not 1 <= mask_size < sax_segments:
            raise ValidationError("mask_size must be in [1, sax_segments)")
        self.k = k
        self.n_masking_rounds = n_masking_rounds
        self.mask_size = mask_size
        self.refine_top = refine_top
        self.length_ratios = length_ratios
        self.sax_segments = sax_segments
        self.sax_alphabet = sax_alphabet
        self.stride_fraction = stride_fraction

    def discover(self, dataset: Dataset, tracer=NULL_TRACER) -> list[Shapelet]:
        """SAX + random masking discovery.

        With :attr:`budget` set, the budget is checked between masking
        rounds (at least one always runs) and between refinement
        candidates (at least one per class); an exhausted budget
        truncates at those deterministic boundaries and records itself
        in ``completed_``.
        """
        if dataset.n_classes < 2:
            raise ValidationError("Fast Shapelets requires at least 2 classes")
        rng = np.random.default_rng(self.seed)
        tracker = self.budget.start() if self.budget is not None else None
        self.completed_ = True
        lengths = resolve_lengths(dataset.series_length, self.length_ratios)
        class_counts = np.bincount(dataset.y, minlength=dataset.n_classes).astype(
            np.float64
        )

        # Enumerate (word, provenance) entries.
        entries: list[tuple[tuple[int, ...], int, int, int, int]] = []
        # (word, label, row, start, length)
        for row_idx in range(dataset.n_series):
            series = dataset.X[row_idx]
            label = int(dataset.y[row_idx])
            for length in lengths:
                if length > series.size:
                    continue
                stride = max(1, int(round(self.stride_fraction * length)))
                for start in range(0, series.size - length + 1, stride):
                    word = sax_word(
                        series[start : start + length],
                        self.sax_segments,
                        self.sax_alphabet,
                    )
                    entries.append((word, label, row_idx, start, length))
        if not entries:
            raise ValidationError("Fast Shapelets enumerated no candidates")
        if tracker is not None:
            tracker.charge(
                len(entries), sum(e[4] for e in entries)
            )

        # Random masking: per round, per masked word, count distinct rows
        # per class whose window collides under the mask.
        scores = np.zeros(len(entries))
        rounds_done = 0
        for round_no in range(self.n_masking_rounds):
            if tracker is not None and round_no > 0 and tracker.exhausted:
                self.completed_ = False
                break
            rounds_done += 1
            masked_positions = rng.choice(
                self.sax_segments, size=self.mask_size, replace=False
            )
            keep = np.setdiff1d(np.arange(self.sax_segments), masked_positions)
            collision_rows: dict[tuple, set[tuple[int, int]]] = defaultdict(set)
            masked_words = []
            for word, label, row_idx, _start, length in entries:
                # Words of short subsequences can have fewer symbols than
                # sax_segments (PAA clamps); mask only existing positions.
                masked = (length,) + tuple(
                    word[pos] for pos in keep if pos < len(word)
                )
                masked_words.append(masked)
                collision_rows[masked].add((label, row_idx))
            for idx, (word, label, _row, _start, _length) in enumerate(entries):
                per_class = np.zeros(dataset.n_classes)
                for other_label, _other_row in collision_rows[masked_words[idx]]:
                    per_class[other_label] += 1.0
                normalized = per_class / np.maximum(class_counts, 1.0)
                own = normalized[label]
                others = (normalized.sum() - own) / max(dataset.n_classes - 1, 1)
                scores[idx] += own - others

        if tracker is not None:
            tracker.record_phase(
                "masking",
                rounds_completed=rounds_done,
                rounds_total=self.n_masking_rounds,
            )

        # Refine the best candidates per class with exact information gain.
        # One cache spans the whole refinement: the training matrix's FFT
        # spectra and window statistics are shared across every candidate
        # (and across classes), instead of being redone per candidate.
        # Its hit/miss/FFT tallies land in ``tracer.counters``.
        refine_cache = SeriesCache(counters=tracer.counters)
        shapelets: list[Shapelet] = []
        for label in range(dataset.n_classes):
            label_idx = [i for i, e in enumerate(entries) if e[1] == label]
            label_idx.sort(key=lambda i: -scores[i])
            refined: list[tuple[float, int]] = []
            for rank, i in enumerate(label_idx[: self.refine_top]):
                if tracker is not None and rank > 0 and tracker.exhausted:
                    self.completed_ = False
                    break
                _word, _label, row_idx, start, length = entries[i]
                values = dataset.X[row_idx][start : start + length]
                distances = batch_min_distance(
                    [values], dataset.X, cache=refine_cache
                )[:, 0]
                gain, _threshold = best_information_gain(distances, dataset.y)
                refined.append((gain, i))
            refined.sort(key=lambda item: -item[0])
            for gain, i in refined[: self.k]:
                _word, _label, row_idx, start, length = entries[i]
                shapelets.append(
                    Shapelet(
                        values=dataset.X[row_idx][start : start + length].copy(),
                        label=label,
                        score=-gain,
                        source_instance=row_idx,
                        start=start,
                    )
                )
        if not shapelets:
            raise ValidationError("Fast Shapelets found no shapelets")
        return shapelets
