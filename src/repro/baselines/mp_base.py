"""BASE: the matrix-profile baseline for shapelet discovery (Yeh et al. [37]).

The method of Section II-B / Formula 4: concatenate all training instances
of each class into one long series ``T_C``; compute the self-join profile
``P_CC`` and the AB-join ``P_C,other`` against the concatenation of every
other class; a window with a large ``|P_C,other - P_CC|`` difference is
declared a shapelet. Top-k is the k largest differences.

Both issues the paper diagnoses are faithfully present:

1. **discords as "shapelets"** — the difference can be large even when the
   window is a discord in both classes;
2. **lack of diversity** — neighbouring windows carry nearly identical
   differences, so the top-k cluster around few locations (the default
   ``exclusion=1`` only removes exact overlaps, like the original sketch).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ShapeletTransformClassifier
from repro.exceptions import ValidationError
from repro.instanceprofile.sampling import resolve_lengths
from repro.kernels import SeriesCache
from repro.matrixprofile.profile import profile_diff
from repro.matrixprofile.stomp import ab_join, stomp_self_join
from repro.obs import NULL_TRACER
from repro.ts.concat import concatenate_series
from repro.ts.series import Dataset
from repro.types import Shapelet

#: Paper's length-ratio grid (shared with IPS for fairness, Section IV-A).
DEFAULT_LENGTH_RATIOS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)


class MPBaseline(ShapeletTransformClassifier):
    """BASE classifier: Formula-4 shapelets + the shared transform stack.

    Parameters
    ----------
    k:
        Shapelets per class (the paper uses 5 for both BASE and IPS).
    length_ratios:
        Candidate window lengths as fractions of the series length.
    exclusion:
        Minimum separation between successive top-k picks; 1 reproduces the
        baseline's near-duplicate behaviour, larger values diversify.
    normalized:
        Distance flavour of the underlying profiles.
    """

    def __init__(
        self,
        k: int = 5,
        length_ratios: tuple[float, ...] = DEFAULT_LENGTH_RATIOS,
        exclusion: int = 1,
        normalized: bool = True,
        svm_c: float = 1.0,
        seed: int | None = 0,
        budget=None,
    ) -> None:
        super().__init__(svm_c=svm_c, seed=seed, budget=budget)
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if exclusion < 1:
            raise ValidationError(f"exclusion must be >= 1, got {exclusion}")
        self.k = k
        self.length_ratios = length_ratios
        self.exclusion = exclusion
        self.normalized = normalized

    def _class_concats(self, dataset: Dataset, label: int):
        """The per-class (own, other) concatenations of Formula 4."""
        own = concatenate_series(
            dataset.series_of_class(label), instance_ids=dataset.class_indices(label)
        )
        other_rows = np.flatnonzero(dataset.y != label)
        other = concatenate_series(dataset.X[other_rows], instance_ids=other_rows)
        return own, other

    def _class_diffs(
        self,
        dataset: Dataset,
        label: int,
        length: int,
        cache: SeriesCache | None = None,
        concat=None,
    ) -> tuple[np.ndarray, "np.ndarray"]:
        """diff(P_C,other, P_CC) for one class and window length.

        ``concat`` lets :meth:`discover` pass pre-built concatenations so
        a shared ``cache`` (:class:`repro.kernels.SeriesCache`) can reuse
        the long series' cumulative sums and FFT spectra across the whole
        length grid — the concatenated arrays stay the same objects, so
        the cache keys stay stable.
        """
        own, other = (
            concat if concat is not None else self._class_concats(dataset, label)
        )
        mask_own = own.valid_window_mask(length)
        mask_other = other.valid_window_mask(length)
        p_self = stomp_self_join(
            own.values,
            length,
            valid_mask=mask_own,
            normalized=self.normalized,
            cache=cache,
        )
        p_cross = ab_join(
            own.values,
            other.values,
            length,
            valid_mask_a=mask_own,
            valid_mask_b=mask_other,
            normalized=self.normalized,
            cache=cache,
        )
        return profile_diff(p_cross, p_self), own

    def discover(self, dataset: Dataset, tracer=NULL_TRACER) -> list[Shapelet]:
        """Top-k largest-difference windows per class (Formula 4).

        With :attr:`budget` set, the length grid is processed
        length-major (every class at the shortest length first) and the
        budget is checked between lengths, so an exhausted budget
        truncates the grid at a deterministic boundary with every class
        equally covered; ``completed_`` records the truncation.
        """
        if dataset.n_classes < 2:
            raise ValidationError("the MP baseline requires at least 2 classes")
        lengths = resolve_lengths(dataset.series_length, self.length_ratios)
        tracker = self.budget.start() if self.budget is not None else None
        # One kernel cache and one set of concatenations for the whole
        # run: the class series' FFT spectra and rolling statistics are
        # computed once and reused across the entire length grid. The
        # cache's hit/miss/FFT tallies land in ``tracer.counters``.
        cache = SeriesCache(counters=tracer.counters)
        concats = {
            label: self._class_concats(dataset, label)
            for label in range(dataset.n_classes)
        }
        pools_by_class: dict[int, list] = {
            label: [] for label in range(dataset.n_classes)
        }
        lengths_done = 0
        for length_no, length in enumerate(lengths):
            if tracker is not None and length_no > 0 and tracker.exhausted:
                break
            for label in range(dataset.n_classes):
                diffs, own = self._class_diffs(
                    dataset, label, length, cache=cache, concat=concats[label]
                )
                pools_by_class[label].append((diffs, own, length))
                if tracker is not None:
                    tracker.charge(int(diffs.size), int(diffs.size))
            lengths_done += 1
        self.completed_ = lengths_done == len(lengths)
        shapelets: list[Shapelet] = []
        for label in range(dataset.n_classes):
            # Pool (diff, position, length) across the length grid.
            pools = pools_by_class[label]
            picks: list[tuple[float, int, int]] = []  # (diff, pool_idx, pos)
            working = [p[0].copy() for p in pools]
            for _ in range(self.k):
                best = (-np.inf, -1, -1)
                for pool_idx, diffs in enumerate(working):
                    pos = int(np.argmax(diffs))
                    if diffs[pos] > best[0]:
                        best = (float(diffs[pos]), pool_idx, pos)
                if not np.isfinite(best[0]):
                    break
                picks.append(best)
                diff_val, pool_idx, pos = best
                lo = max(0, pos - self.exclusion)
                hi = min(working[pool_idx].size, pos + self.exclusion + 1)
                working[pool_idx][lo:hi] = -np.inf
            for diff_val, pool_idx, pos in picks:
                _diffs, own, length = pools[pool_idx]
                instance_id, offset = own.locate(pos, length)
                shapelets.append(
                    Shapelet(
                        values=own.values[pos : pos + length].copy(),
                        label=label,
                        score=-diff_val,  # keep "smaller is better" ordering
                        source_instance=instance_id,
                        start=offset,
                    )
                )
        if not shapelets:
            raise ValidationError("BASE found no shapelets")
        return shapelets
