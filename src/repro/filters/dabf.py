"""Distribution-aware bloom filter (DABF) — Algorithms 2 and 3 of the paper.

A DABF answers "is this query close to *most elements* of the set?" in
O(N):

1. **Construction (Algorithm 2).** Per class: hash every candidate into an
   LSH bucket table; rank buckets by center-to-origin distance; keep the
   mean and std of the member distances, all that the 3-sigma rule needs.
   The best-fit distribution of their z-normalized histogram (Table III
   shows it is almost always normal) is fitted when first read.
2. **Query / pruning (Algorithm 3).** For a candidate ``e`` of class C,
   compute ``dist(LSH_Cbar(e), 0)`` in every *other* class's table,
   z-normalize by that class's distribution, and apply the 3-sigma rule:
   if the candidate lands within ``mu +- 3 sigma`` of any other class's
   distribution, it is "possibly close to most elements" of that class —
   i.e. it does not discriminate — and is removed.

Candidates come in several lengths (the ratio grid of Section IV-A), while
an LSH family has a fixed input dimension; the DABF therefore keeps one
bucket table per (class, length) and routes queries by length, resampling
to the nearest table when an exact-length table is missing (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.filters.distribution import DistributionFit, fit_best_distribution
from repro.instanceprofile.candidates import CandidatePool
from repro.lsh.base import make_lsh
from repro.lsh.table import LSHTable
from repro.kernels import subsequence_distance
from repro.ts.preprocessing import FLAT_STD, linear_interpolate_resample, znormalize
from repro.types import Candidate

#: Default 3-sigma threshold (Chebyshev: at least 88.89% of any distribution).
DEFAULT_THETA = 3.0


@dataclass
class _LengthTable:
    """One per-length bucket table plus its normalization statistics."""

    table: LSHTable
    mean: float
    std: float

    def zscore(self, values: np.ndarray) -> float:
        """Z-normalized distance-to-origin of a query in this table."""
        norm = self.table.query_norm(values)
        if self.std < FLAT_STD:
            return 0.0 if abs(norm - self.mean) < FLAT_STD else float("inf")
        return (norm - self.mean) / self.std

    def member_zscores(self) -> np.ndarray:
        """Z-normalized distance-to-origin of every member (zeros if flat)."""
        norms = self.table.member_norms()
        if self.std < FLAT_STD:
            return np.zeros_like(norms)
        return (norms - self.mean) / self.std


class ClassDABF:
    """The per-class half of a DABF: ``(LSH_C, Distribution_C)``."""

    def __init__(
        self,
        label: int,
        scheme: str = "l2",
        n_projections: int = 8,
        bins: int = 16,
        znorm_inputs: bool = False,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.label = label
        self.scheme = scheme
        self.n_projections = n_projections
        self.bins = bins
        #: z-normalize subsequences before hashing. Raw hashing (default)
        #: keeps amplitude information and prunes more aggressively;
        #: z-normalized hashing makes the codomain distribution close to
        #: normal (the Table III experiment uses this flavour).
        self.znorm_inputs = znorm_inputs
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._tables: dict[int, _LengthTable] = {}
        self._fits: tuple[DistributionFit, list[DistributionFit]] | None = None

    def _prepare(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        return znormalize(values) if self.znorm_inputs else values

    @property
    def lengths(self) -> list[int]:
        """Candidate lengths this class has tables for."""
        return sorted(self._tables)

    def build(self, candidates: list[Candidate]) -> None:
        """Algorithm 2 for one class: bucket, rank, keep each length's mean/std.

        The Table III distribution fit waits for the first read of
        :attr:`distribution` or :attr:`all_fits`.
        """
        if not candidates:
            raise ValidationError(f"class {self.label} has no candidates")
        by_length: dict[int, list[Candidate]] = {}
        for cand in candidates:
            by_length.setdefault(cand.length, []).append(cand)
        for length, group in sorted(by_length.items()):
            family = make_lsh(
                self.scheme, dim=length, n_projections=self.n_projections, seed=self._rng
            )
            table = LSHTable(family)
            for idx, cand in enumerate(group):
                table.add(self._prepare(cand.values), item_id=idx)
            norms = table.member_norms()
            mean = float(norms.mean())
            std = float(norms.std())
            self._tables[length] = _LengthTable(table=table, mean=mean, std=std)
        self._fits = None

    def _best_fit(self) -> tuple[DistributionFit | None, list[DistributionFit]]:
        """Table III fit of the pooled per-length z-scores, made on first read."""
        if self._fits is None and self._tables:
            pooled = np.concatenate([self._tables[n].member_zscores() for n in self.lengths])
            self._fits = fit_best_distribution(pooled, bins=self.bins)
        return self._fits or (None, [])

    @property
    def distribution(self) -> DistributionFit | None:
        """Best-fit family of the codomain histogram (None until built)."""
        return self._best_fit()[0]

    @property
    def all_fits(self) -> list[DistributionFit]:
        """Every family's fit of the codomain histogram ([] until built)."""
        return self._best_fit()[1]

    def _route(self, values: np.ndarray) -> tuple[_LengthTable, np.ndarray]:
        """Pick the table for this query length, resampling if needed."""
        if not self._tables:
            raise ValidationError(f"class {self.label} DABF is empty")
        values = self._prepare(values)
        nearest = self._nearest_length(values.size)
        if nearest == values.size:
            return self._tables[nearest], values
        return self._tables[nearest], linear_interpolate_resample(values, nearest)

    def _nearest_length(self, length: int) -> int:
        """Length of the table a query of ``length`` routes to."""
        if length in self._tables:
            return length
        available = np.asarray(self.lengths)
        return int(available[np.argmin(np.abs(available - length))])

    def rank_denominator(self, length: int) -> float:
        """Divisor that maps the bucket ranks of ``length`` queries into [0, 1].

        The ranks come from the table the length routes to, so this is
        that table's ``n_buckets - 1`` (at least 1).
        """
        table = self._tables[self._nearest_length(length)].table
        return max(float(table.n_buckets - 1), 1.0)

    def query_zscore(self, values: np.ndarray) -> float:
        """Z-normalized ``dist(LSH_C(query), 0)`` (Algorithm 3, line 4)."""
        table, routed = self._route(values)
        return table.zscore(routed)

    def is_close_to_most(self, values: np.ndarray, theta: float = DEFAULT_THETA) -> bool:
        """3-sigma-rule membership test.

        True = "possibly close to most elements" of this class;
        False = "definitely not close to most elements".
        """
        return abs(self.query_zscore(values)) <= theta

    def bucket_ranks_batch(self, rows: np.ndarray) -> np.ndarray:
        """Ranked-bucket indices for many equal-length queries at once.

        All rows are routed through the table for their common length
        (resampled to the nearest available length when needed). This is
        the workhorse of the DT optimization: candidate-to-candidate and
        candidate-to-window distances collapse to ``|B_i - B_j|`` over
        these ranks (Formula 15).
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValidationError("bucket_ranks_batch expects a 2-D matrix")
        if self.znorm_inputs:
            rows = znormalize(rows, axis=1)
        nearest = self._nearest_length(rows.shape[1])
        if nearest == rows.shape[1]:
            return self._tables[nearest].table.bucket_ranks_batch(rows)
        resampled = np.vstack(
            [linear_interpolate_resample(row, nearest) for row in rows]
        )
        return self._tables[nearest].table.bucket_ranks_batch(resampled)

    def n_items(self) -> int:
        """Total candidates hashed into this class's tables."""
        return sum(lt.table.n_items for lt in self._tables.values())


@dataclass
class PruneReport:
    """Statistics of one Algorithm-3 pruning pass."""

    removed_per_class: dict[int, int] = field(default_factory=dict)
    kept_per_class: dict[int, int] = field(default_factory=dict)

    @property
    def n_removed(self) -> int:
        """Total candidates removed."""
        return sum(self.removed_per_class.values())

    @property
    def n_kept(self) -> int:
        """Total candidates kept."""
        return sum(self.kept_per_class.values())


class DABF:
    """The full distribution-aware bloom filter over all classes."""

    def __init__(self, per_class: dict[int, ClassDABF]) -> None:
        if not per_class:
            raise ValidationError("DABF requires at least one class")
        self.per_class = per_class

    @classmethod
    def build(
        cls,
        pool: CandidatePool,
        scheme: str = "l2",
        n_projections: int = 8,
        bins: int = 16,
        znorm_inputs: bool = False,
        seed: int | np.random.Generator | None = None,
    ) -> "DABF":
        """Algorithm 2: construct one :class:`ClassDABF` per class."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        per_class: dict[int, ClassDABF] = {}
        for label in pool.classes:
            cdabf = ClassDABF(
                label=label,
                scheme=scheme,
                n_projections=n_projections,
                bins=bins,
                znorm_inputs=znorm_inputs,
                seed=rng,
            )
            cdabf.build(pool.all_of_class(label))
            per_class[label] = cdabf
        return cls(per_class)

    @property
    def classes(self) -> list[int]:
        """Class labels covered."""
        return sorted(self.per_class)

    def fits(self) -> dict[int, DistributionFit]:
        """Best distribution fit per class (feeds the Table III bench)."""
        return {
            label: cdabf.distribution
            for label, cdabf in self.per_class.items()
            if cdabf.distribution is not None
        }

    def should_prune(
        self, candidate: Candidate, theta: float = DEFAULT_THETA
    ) -> bool:
        """Algorithm 3, line 4: close to most elements of ANY other class?"""
        return any(
            self.per_class[other].is_close_to_most(candidate.values, theta)
            for other in self.classes
            if other != candidate.label
        )

    def prune(
        self, pool: CandidatePool, theta: float = DEFAULT_THETA
    ) -> tuple[CandidatePool, PruneReport]:
        """Algorithm 3: remove candidates close to most elements elsewhere.

        Works on a copy; the input pool is untouched. Single-class pools
        pass through unchanged (there is no "other class" to collide with).
        """
        pruned = pool.copy()
        report = PruneReport()
        for label in pool.classes:
            removed = 0
            for candidate in pool.all_of_class(label):
                if self.should_prune(candidate, theta):
                    pruned.remove(candidate)
                    removed += 1
            report.removed_per_class[label] = removed
            report.kept_per_class[label] = len(pool.all_of_class(label)) - removed
        return pruned, report


class NaivePruner:
    """The quadratic reference method Algorithm 3 is compared against.

    "Close to most elements" is answered on raw distances: compute the
    Def.-4 distance from the query to every element of the other class and
    compare the query's *mean* distance against the class's own pairwise
    distance distribution — the query is close to most elements when its
    mean distance lies within ``theta`` standard deviations of the class's
    internal mean (the same 3-sigma-rule semantics the DABF evaluates on
    hashed statistics, but at O(|Phi| N log N) per query instead of O(N) —
    the gap measured by Table V and Fig. 10(a)).

    Parameters
    ----------
    max_reference_pairs:
        Cap on sampled pairs when estimating each class's internal distance
        distribution (construction cost control only).
    series_cache:
        Optional :class:`~repro.kernels.SeriesCache`. Candidate ``values``
        arrays are stable objects for the pool's lifetime, so routing the
        quadratic distance loops through the cache gives each candidate
        one FFT/statistics pass total instead of one per comparison —
        results are bit-identical either way.
    """

    def __init__(
        self,
        pool: CandidatePool,
        theta: float = DEFAULT_THETA,
        max_reference_pairs: int = 256,
        seed: int | np.random.Generator | None = None,
        series_cache=None,
    ) -> None:
        self.theta = theta
        self.pool = pool
        self.series_cache = series_cache
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._stats: dict[int, tuple[float, float]] = {}
        for label in pool.classes:
            elements = pool.all_of_class(label)
            if len(elements) < 2:
                self._stats[label] = (float("inf"), 0.0)
                continue
            n_pairs = min(max_reference_pairs, len(elements) * (len(elements) - 1) // 2)
            dists = np.empty(n_pairs)
            for p in range(n_pairs):
                i, j = rng.choice(len(elements), size=2, replace=False)
                dists[p] = subsequence_distance(
                    elements[i].values,
                    elements[j].values,
                    cache=series_cache,
                )
            self._stats[label] = (float(dists.mean()), float(dists.std()))

    def is_close_to_most(self, values: np.ndarray, label: int) -> bool:
        """Mean-distance 3-sigma test against class ``label``'s elements."""
        elements = self.pool.all_of_class(label)
        if not elements:
            return False
        mean_internal, std_internal = self._stats[label]
        if not np.isfinite(mean_internal):
            return False
        mean_query = float(
            np.mean(
                [
                    subsequence_distance(
                        values, element.values, cache=self.series_cache
                    )
                    for element in elements
                ]
            )
        )
        spread = max(std_internal, FLAT_STD)
        return mean_query <= mean_internal + self.theta * spread

    def should_prune(self, candidate: Candidate) -> bool:
        """Same decision contract as :meth:`DABF.should_prune`."""
        return any(
            self.is_close_to_most(candidate.values, other)
            for other in self.pool.classes
            if other != candidate.label
        )

    def prune(self, pool: CandidatePool) -> tuple[CandidatePool, PruneReport]:
        """Full naive pruning pass (for timing comparisons)."""
        pruned = pool.copy()
        report = PruneReport()
        for label in pool.classes:
            removed = 0
            for candidate in pool.all_of_class(label):
                if self.should_prune(candidate):
                    pruned.remove(candidate)
                    removed += 1
            report.removed_per_class[label] = removed
            report.kept_per_class[label] = len(pool.all_of_class(label)) - removed
        return pruned, report
