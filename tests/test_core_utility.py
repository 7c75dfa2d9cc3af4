"""Tests for repro.core.utility: Defs. 11-13 + DT & CR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.utility import (
    UtilityScores,
    _PairDistanceCache,
    _finalize,
    score_candidates_brute,
    score_candidates_dt,
    sigmoid_utility,
)
from repro.datasets.generators import make_planted_dataset
from repro.exceptions import ValidationError
from repro.filters.dabf import DABF
from repro.instanceprofile.candidates import generate_candidates
from repro.lsh import LSHTable
from repro.types import Candidate, CandidateKind


@pytest.fixture(scope="module")
def scored_setup():
    dataset = make_planted_dataset(n_classes=2, n_instances=14, length=70, seed=5)
    pool = generate_candidates(dataset, q_n=6, q_s=3, lengths=[10, 18], seed=0)
    dabf = DABF.build(pool, seed=0)
    return dataset, pool, dabf


class TestSigmoidUtility:
    def test_range(self):
        assert sigmoid_utility(0.0) == pytest.approx(0.5)
        assert 0.0 < sigmoid_utility(-5.0) < 0.5 < sigmoid_utility(5.0) < 1.0

    def test_saturation_motivates_normalization(self):
        """The paper's raw-sum sigmoid saturates: documented deviation."""
        assert sigmoid_utility(100.0) == 1.0
        assert sigmoid_utility(150.0) == 1.0

    def test_no_overflow_on_large_negative(self):
        assert sigmoid_utility(-1000.0) == pytest.approx(0.0)


class TestUtilityScores:
    def test_combined_formula(self):
        cand = Candidate(values=np.ones(4), label=0, kind=CandidateKind.MOTIF)
        scores = UtilityScores(
            candidates=[cand],
            intra=np.array([0.3]),
            inter=np.array([0.8]),
            instance=np.array([0.2]),
        )
        assert scores.combined[0] == pytest.approx(0.3 - 0.8 + 0.2)

    def test_shape_validation(self):
        cand = Candidate(values=np.ones(4), label=0, kind=CandidateKind.MOTIF)
        with pytest.raises(ValidationError):
            UtilityScores(
                candidates=[cand],
                intra=np.array([0.1, 0.2]),
                inter=np.array([0.1]),
                instance=np.array([0.1]),
            )


class TestBruteForce:
    def test_scores_for_all_motifs(self, scored_setup):
        dataset, pool, _dabf = scored_setup
        scores = score_candidates_brute(dataset, pool, 0)
        assert len(scores.candidates) == len(pool.motifs(0))
        assert scores.combined.shape == (len(scores.candidates),)

    def test_utilities_in_unit_interval(self, scored_setup):
        dataset, pool, _dabf = scored_setup
        scores = score_candidates_brute(dataset, pool, 0)
        for arr in (scores.intra, scores.inter, scores.instance):
            assert np.all((arr >= 0.0) & (arr <= 1.0))

    def test_cr_matches_no_cr(self, scored_setup):
        """CR is a pure optimization: identical utilities."""
        dataset, pool, _dabf = scored_setup
        with_cr = score_candidates_brute(dataset, pool, 0, use_cr=True)
        without_cr = score_candidates_brute(dataset, pool, 0, use_cr=False)
        assert np.allclose(with_cr.combined, without_cr.combined, atol=1e-9)

    def test_shared_cache_reused_across_classes(self, scored_setup):
        dataset, pool, _dabf = scored_setup
        cache = _PairDistanceCache()
        score_candidates_brute(dataset, pool, 0, cache=cache)
        misses_after_first = cache.misses
        score_candidates_brute(dataset, pool, 1, cache=cache)
        assert cache.hits > 0
        assert cache.misses > misses_after_first  # new intra pairs of class 1

    def test_unnormalized_sums_saturate(self, scored_setup):
        """Reproduces the paper's literal formula: sums saturate to 1."""
        dataset, pool, _dabf = scored_setup
        scores = score_candidates_brute(dataset, pool, 0, normalize=False)
        # With ~dozens of candidates the sigmoid saturates for intra/inter.
        assert np.allclose(scores.inter, 1.0)

    def test_empty_class_gives_empty_scores(self, scored_setup):
        dataset, pool, _dabf = scored_setup
        scores = score_candidates_brute(dataset, pool, 99)
        assert len(scores.candidates) == 0


class TestDT:
    def test_scores_align_with_candidates(self, scored_setup):
        dataset, pool, dabf = scored_setup
        scores = score_candidates_dt(dataset, pool, 0, dabf)
        assert len(scores.candidates) == len(pool.motifs(0))
        assert np.all(np.isfinite(scores.combined))

    def test_dt_flags_same_outlier_as_brute(self, rng):
        """A far outlier gets the worst intra utility in both spaces."""
        from repro.instanceprofile.candidates import CandidatePool
        from repro.ts.series import Dataset

        base = rng.normal(size=12)
        pool = CandidatePool()
        for i in range(9):
            pool.add(
                Candidate(
                    values=base + 0.05 * rng.normal(size=12),
                    label=0,
                    kind=CandidateKind.MOTIF,
                    start=i,
                )
            )
        outlier = Candidate(
            values=base * 3.0 + 4.0, label=0, kind=CandidateKind.MOTIF, start=99
        )
        pool.add(outlier)
        for i in range(4):
            pool.add(
                Candidate(
                    values=rng.normal(size=12) + 5.0,
                    label=1,
                    kind=CandidateKind.MOTIF,
                    start=i,
                )
            )
        dataset = Dataset(X=rng.normal(size=(6, 40)), y=[0, 0, 0, 1, 1, 1])
        dabf = DABF.build(pool, seed=0)
        brute = score_candidates_brute(dataset, pool, 0)
        dt = score_candidates_dt(dataset, pool, 0, dabf)
        outlier_idx = brute.candidates.index(outlier)
        assert int(np.argmax(brute.intra)) == outlier_idx
        # DT's rank space is coarse (few buckets), so allow ties at the max.
        assert dt.intra[outlier_idx] >= dt.intra.max() - 1e-12

    def test_dt_utilities_in_unit_interval(self, scored_setup):
        dataset, pool, dabf = scored_setup
        scores = score_candidates_dt(dataset, pool, 0, dabf)
        for arr in (scores.intra, scores.inter, scores.instance):
            assert np.all((arr >= 0.0) & (arr <= 1.0))

    def test_empty_class(self, scored_setup):
        dataset, pool, dabf = scored_setup
        scores = score_candidates_dt(dataset, pool, 99, dabf)
        assert len(scores.candidates) == 0


def _reference_rank_index(self):
    """``LSHTable._rank_index`` without its cache: rebuilt on every query."""
    ranked = self.ranked_buckets()
    key_rank = {bucket.key: rank for rank, bucket in enumerate(ranked)}
    norms = np.asarray([bucket.center_norm for bucket in ranked])
    return key_rank, norms


def _reference_normalized_ranks(dabf, label, items):
    cdabf = dabf.per_class[label]
    ranks = np.empty(len(items))
    by_length: dict[int, list[int]] = {}
    for idx, cand in enumerate(items):
        by_length.setdefault(cand.length, []).append(idx)
    for length, idxs in by_length.items():
        rows = np.vstack([items[i].values for i in idxs])
        raw = cdabf.bucket_ranks_batch(rows).astype(np.float64)
        table_lengths = np.asarray(cdabf.lengths)
        nearest = int(table_lengths[np.argmin(np.abs(table_lengths - length))])
        n_buckets = cdabf._tables[nearest].table.n_buckets  # noqa: SLF001
        denom = max(float(n_buckets - 1), 1.0)
        ranks[idxs] = raw / denom
    return np.clip(ranks, 0.0, 1.0)


def _reference_instance_window_ranks(dataset, dabf, label, lengths):
    instances = dataset.series_of_class(label)
    cdabf = dabf.per_class[label]
    out: dict[int, list[np.ndarray]] = {}
    for length in lengths:
        table_lengths = np.asarray(cdabf.lengths)
        nearest = int(table_lengths[np.argmin(np.abs(table_lengths - length))])
        n_buckets = cdabf._tables[nearest].table.n_buckets  # noqa: SLF001
        denom = max(float(n_buckets - 1), 1.0)
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


def _reference_min_gap(sorted_values, x):
    if sorted_values.size == 0:
        return 0.0
    pos = int(np.searchsorted(sorted_values, x))
    best = np.inf
    if pos < sorted_values.size:
        best = min(best, abs(sorted_values[pos] - x))
    if pos > 0:
        best = min(best, abs(sorted_values[pos - 1] - x))
    return float(best)


def _reference_score_dt(dataset, pool, label, dabf, normalize):
    """DT + CR scoring one candidate and one instance at a time: the oracle."""
    motifs = pool.motifs(label)
    others = pool.other_classes(label)
    n = len(motifs)
    motif_ranks = _reference_normalized_ranks(dabf, label, motifs)
    gap_matrix = np.abs(motif_ranks[:, None] - motif_ranks[None, :])
    intra_sums = gap_matrix.sum(axis=1)
    if others:
        other_ranks = _reference_normalized_ranks(dabf, label, others)
        inter_sums = np.abs(motif_ranks[:, None] - other_ranks[None, :]).sum(axis=1)
    else:
        inter_sums = np.zeros(n)
    lengths = sorted({cand.length for cand in motifs})
    window_ranks = _reference_instance_window_ranks(dataset, dabf, label, lengths)
    n_instances = dataset.class_indices(label).size
    instance_sums = np.zeros(n)
    for i, candidate in enumerate(motifs):
        # Left to right from 0, as sum() of floats adds before Python
        # 3.12 (which made it compensated).
        total = 0
        for sorted_ranks in window_ranks[candidate.length]:
            total += _reference_min_gap(sorted_ranks, motif_ranks[i])
        instance_sums[i] = total
    return (
        _finalize(intra_sums, max(n - 1, 1), normalize),
        _finalize(inter_sums, max(len(others), 1), normalize),
        _finalize(instance_sums, max(n_instances, 1), normalize),
    )


def _dt_oracle_case(n_classes, n_instances, length, lengths, odd_length):
    """A planted set, its DABF, and a scored pool with two odd motifs per class.

    One motif has ``odd_length``, a length without a table of its own (it
    routes to the nearest table by resampling); one is longer than every
    series, so each instance contributes an empty rank array.
    """
    dataset = make_planted_dataset(
        n_classes=n_classes, n_instances=n_instances, length=length, seed=3
    )
    pool = generate_candidates(dataset, q_n=4, q_s=3, lengths=lengths, seed=0)
    dabf = DABF.build(pool, seed=0)
    scored = pool.copy()
    for label in range(n_classes):
        row = dataset.series_of_class(label)[0]
        for values in (row[:odd_length], np.concatenate([row, row[:5]])):
            scored.add(Candidate(values=values, label=label, kind=CandidateKind.MOTIF))
    return dataset, scored, dabf


class TestDTMatchesReference:
    @pytest.mark.parametrize(
        "case",
        [
            pytest.param((8, 120, 56, [8, 14], 11), id="short-8-class"),
            pytest.param((2, 40, 192, [20, 48], 30), id="long-2-class"),
        ],
    )
    @pytest.mark.parametrize("normalize", [True, False])
    def test_scores_bit_identical(self, case, normalize, monkeypatch):
        dataset, pool, dabf = _dt_oracle_case(*case)
        for label in range(dataset.n_classes):
            with monkeypatch.context() as patched:
                patched.setattr(LSHTable, "_rank_index", _reference_rank_index)
                expected = _reference_score_dt(dataset, pool, label, dabf, normalize)
            scores = score_candidates_dt(dataset, pool, label, dabf, normalize)
            assert len(scores.candidates) == len(pool.motifs(label))
            for got, want in zip((scores.intra, scores.inter, scores.instance), expected):
                assert np.array_equal(got, want)


class TestPairDistanceCache:
    def test_symmetric_key(self, rng):
        cache = _PairDistanceCache()
        a = Candidate(values=rng.normal(size=8), label=0, kind=CandidateKind.MOTIF)
        b = Candidate(values=rng.normal(size=8), label=0, kind=CandidateKind.MOTIF)
        d1 = cache.distance(a, b)
        d2 = cache.distance(b, a)
        assert d1 == d2
        assert cache.hits == 1
        assert cache.misses == 1
