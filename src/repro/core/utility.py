"""The three utility functions (Defs. 11-13) and their optimizations.

A motif candidate of class C is scored from three perspectives:

* **intra-class** (Def. 11): total distance to the other motif candidates
  of C — small means the candidate represents its class;
* **inter-class** (Def. 12): total distance to the motifs *and discords*
  of every other class — large means it discriminates;
* **intra-instance** (Def. 13): total Def.-4 distance to the raw training
  instances of C — small means the instances of C actually contain it
  (this is what kills the Example-1 "discord in both classes" failure).

The combined score (Algorithm 4, line 6) is

    u = U_intra - U_inter + U_DC        (smaller is better)

Two computation paths exist:

* **brute force** — raw Def.-4 distances; the CR (computation reuse)
  optimization computes each unordered candidate pair once instead of
  twice and shares cross-class pairs between the per-class passes;
* **DT (distribution transformation)** — Formula 15 replaces each distance
  with the rank gap ``|B_i - B_j|`` of the two items' DABF buckets, turning
  the O(N^2) distance into an O(N) hash. Ranks are normalized to [0, 1]
  per bucket table so that gaps are comparable across candidate lengths
  (a deviation documented in DESIGN.md: the paper keeps raw ranks and is
  silent on multi-length comparability).

Numerical note: Defs. 11-13 apply a sigmoid to a *raw sum* of distances;
with hundreds of candidates that sum is far above the float64 sigmoid
saturation point and every candidate would score exactly 1.0. With
``normalize=True`` (the default) the sums are divided by their term count
first, preserving the intended ranking; ``normalize=False`` reproduces the
paper's literal formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.filters.dabf import DABF
from repro.instanceprofile.candidates import CandidatePool
from repro.kernels import SeriesCache, batch_min_distance, subsequence_distance
from repro.ts.series import Dataset
from repro.types import Candidate


def sigmoid_utility(total: float) -> float:
    """The paper's ``1 / (1 + e^{-total})`` wrapper (Formulas 12-14)."""
    if total >= 0:
        return 1.0 / (1.0 + np.exp(-total))
    e = np.exp(total)
    return float(e / (1.0 + e))


@dataclass
class UtilityScores:
    """Per-candidate utilities of one class's motif candidates."""

    candidates: list[Candidate]
    intra: np.ndarray
    inter: np.ndarray
    instance: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.candidates)
        for name in ("intra", "inter", "instance"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n,):
                raise ValidationError(f"{name} utilities must have shape ({n},)")
            setattr(self, name, arr)

    @property
    def combined(self) -> np.ndarray:
        """Algorithm 4, line 6: ``u = U_intra - U_inter + U_DC`` (min = best)."""
        return self.intra - self.inter + self.instance


class _PairDistanceCache:
    """Cross-call cache of Def.-4 distances between candidates (the CR idea).

    ``series_cache`` additionally routes each *miss* through the kernel
    engine's :class:`~repro.kernels.SeriesCache`: candidate ``values``
    arrays are stable objects for the pool's lifetime, so the id-keyed
    spectrum/statistics entries hit — the longer array of each pair gets
    one FFT total instead of one per partner it is compared against.
    """

    def __init__(self, series_cache: SeriesCache | None = None) -> None:
        self._store: dict[tuple[int, int], float] = {}
        self.series_cache = series_cache
        self.hits = 0
        self.misses = 0

    def distance(self, a: Candidate, b: Candidate) -> float:
        """Cached Def.-4 distance between two candidates."""
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = subsequence_distance(a.values, b.values, cache=self.series_cache)
        self._store[key] = value
        return value


def _finalize(sums: np.ndarray, counts: int, normalize: bool) -> np.ndarray:
    """Apply optional count normalization, then the sigmoid, elementwise."""
    if normalize and counts > 0:
        sums = sums / counts
    return np.array([sigmoid_utility(total) for total in sums])


def score_candidates_brute(
    dataset: Dataset,
    pool: CandidatePool,
    label: int,
    use_cr: bool = True,
    normalize: bool = True,
    cache: _PairDistanceCache | None = None,
    series_cache: SeriesCache | None = None,
) -> UtilityScores:
    """Brute-force utilities for the motif candidates of one class.

    ``use_cr=False`` recomputes every ordered pair (the paper's "numerous
    repeated utility calculation" arm, used for the Table V timing
    comparison); ``use_cr=True`` computes each unordered pair once, and a
    shared ``cache`` additionally reuses cross-class pairs between the
    per-class passes. The intra-instance sums run through the batched
    kernel engine; ``series_cache`` shares the training series' FFT
    spectra and window statistics with the other pipeline phases.
    """
    motifs = pool.motifs(label)
    if not motifs:
        return UtilityScores(
            candidates=[], intra=np.empty(0), inter=np.empty(0), instance=np.empty(0)
        )
    others = pool.other_classes(label)
    instances = dataset.series_of_class(label)
    n = len(motifs)

    intra_sums = np.zeros(n)
    if use_cr:
        shared = (
            cache
            if cache is not None
            else _PairDistanceCache(series_cache=series_cache)
        )
        for i in range(n):
            for j in range(i + 1, n):
                d = shared.distance(motifs[i], motifs[j])
                intra_sums[i] += d
                intra_sums[j] += d
        inter_sums = np.zeros(n)
        for i in range(n):
            for other in others:
                inter_sums[i] += shared.distance(motifs[i], other)
    else:
        # Deliberately wasteful: both (i, j) and (j, i) are computed —
        # but the series cache still applies (candidate arrays are stable
        # objects, so each one is FFT'd once, not once per pairing).
        for i in range(n):
            for j in range(n):
                if i != j:
                    intra_sums[i] += subsequence_distance(
                        motifs[i].values, motifs[j].values, cache=series_cache
                    )
        inter_sums = np.zeros(n)
        for i in range(n):
            for other in others:
                inter_sums[i] += subsequence_distance(
                    motifs[i].values, other.values, cache=series_cache
                )

    # One batched kernel pass replaces the per-(candidate, instance)
    # Python loop; row-major accumulation keeps the historical summation
    # order, so the sums are bit-identical to the scalar path.
    instance_sums = np.zeros(n)
    if instances.shape[0]:
        per_pair = batch_min_distance(
            [c.values for c in motifs], instances, cache=series_cache
        )
        for row_distances in per_pair:
            instance_sums += row_distances

    return UtilityScores(
        candidates=motifs,
        intra=_finalize(intra_sums, max(n - 1, 1), normalize),
        inter=_finalize(inter_sums, max(len(others), 1), normalize),
        instance=_finalize(instance_sums, max(len(instances), 1), normalize),
    )


def _normalized_ranks(dabf: DABF, label: int, items: list[Candidate]) -> np.ndarray:
    """Bucket ranks of candidates through class ``label``'s tables, in [0, 1].

    Candidates are grouped by length so each group can use one batched
    table query; ranks are divided by the table's bucket count so gaps are
    comparable across lengths.
    """
    cdabf = dabf.per_class[label]
    ranks = np.empty(len(items))
    by_length: dict[int, list[int]] = {}
    for idx, cand in enumerate(items):
        by_length.setdefault(cand.length, []).append(idx)
    for length, idxs in by_length.items():
        rows = np.vstack([items[i].values for i in idxs])
        raw = cdabf.bucket_ranks_batch(rows).astype(np.float64)
        ranks[idxs] = raw / cdabf.rank_denominator(length)
    return np.clip(ranks, 0.0, 1.0)


def _instance_window_ranks(
    dataset: Dataset, dabf: DABF, label: int, lengths: list[int]
) -> dict[int, list[np.ndarray]]:
    """Sorted normalized window ranks per (length, instance) for class C.

    Hashing every sliding window once and reusing it for every candidate is
    the CR idea applied to the intra-instance utility. Each instance's
    windows are one table query of their own: stacking several instances
    into one query changes the ranks, because BLAS rounds the projection
    product differently as the row count grows.
    """
    instances = dataset.series_of_class(label)
    cdabf = dabf.per_class[label]
    out: dict[int, list[np.ndarray]] = {}
    for length in lengths:
        denom = cdabf.rank_denominator(length)
        per_instance: list[np.ndarray] = []
        for row in instances:
            if length > row.size:
                per_instance.append(np.empty(0))
                continue
            windows = np.lib.stride_tricks.sliding_window_view(row, length)
            raw = cdabf.bucket_ranks_batch(np.ascontiguousarray(windows))
            per_instance.append(np.sort(np.clip(raw / denom, 0.0, 1.0)))
        out[length] = per_instance
    return out


def _nearest_gaps(sorted_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Minimum ``|x_j - v|`` over a non-empty sorted array, for every ``x_j``."""
    pos = np.searchsorted(sorted_values, x)
    last = sorted_values.size - 1
    above = np.abs(sorted_values[np.minimum(pos, last)] - x)
    below = np.abs(sorted_values[np.maximum(pos - 1, 0)] - x)
    above[pos > last] = np.inf
    below[pos == 0] = np.inf
    return np.minimum(above, below)


def score_candidates_dt(
    dataset: Dataset,
    pool: CandidatePool,
    label: int,
    dabf: DABF,
    normalize: bool = True,
) -> UtilityScores:
    """DT + CR utilities (Section III-E) for one class's motif candidates.

    Every distance is replaced by the normalized bucket-rank gap
    ``|B_i - B_j|`` (Formula 15/16); bucket ranks are computed once per
    item and reused across all three utilities (CR).
    """
    motifs = pool.motifs(label)
    if not motifs:
        return UtilityScores(
            candidates=[], intra=np.empty(0), inter=np.empty(0), instance=np.empty(0)
        )
    others = pool.other_classes(label)
    n = len(motifs)

    motif_ranks = _normalized_ranks(dabf, label, motifs)
    gap_matrix = np.abs(motif_ranks[:, None] - motif_ranks[None, :])
    intra_sums = gap_matrix.sum(axis=1)  # diagonal contributes zero

    if others:
        other_ranks = _normalized_ranks(dabf, label, others)
        inter_sums = np.abs(motif_ranks[:, None] - other_ranks[None, :]).sum(axis=1)
    else:
        inter_sums = np.zeros(n)

    motif_lengths = np.array([cand.length for cand in motifs])
    window_ranks = _instance_window_ranks(
        dataset, dabf, label, np.unique(motif_lengths).tolist()
    )
    n_instances = dataset.class_indices(label).size
    instance_sums = np.zeros(n)
    for length, per_instance in window_ranks.items():
        idxs = np.flatnonzero(motif_lengths == length)
        ranks = motif_ranks[idxs]
        # Instance by instance from 0.0: the same left-to-right sums as
        # a per-candidate loop. An instance shorter than the length has
        # no windows and adds nothing.
        sums = np.zeros(idxs.size)
        for sorted_ranks in per_instance:
            if sorted_ranks.size:
                sums += _nearest_gaps(sorted_ranks, ranks)
        instance_sums[idxs] = sums

    return UtilityScores(
        candidates=motifs,
        intra=_finalize(intra_sums, max(n - 1, 1), normalize),
        inter=_finalize(inter_sums, max(len(others), 1), normalize),
        instance=_finalize(instance_sums, max(n_instances, 1), normalize),
    )
