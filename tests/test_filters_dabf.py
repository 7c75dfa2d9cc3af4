"""Tests for repro.filters.dabf: Algorithms 2-3 + the naive pruner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
import repro.filters.dabf as dabf_module
from repro.filters.dabf import DABF, ClassDABF, NaivePruner
from repro.filters.distribution import fit_best_distribution
from repro.instanceprofile.candidates import CandidatePool, generate_candidates
from repro.ts.preprocessing import FLAT_STD
from repro.types import Candidate, CandidateKind


def _pool_from_arrays(per_class: dict[int, list[np.ndarray]]) -> CandidatePool:
    pool = CandidatePool()
    for label, arrays in per_class.items():
        for i, arr in enumerate(arrays):
            pool.add(
                Candidate(values=arr, label=label, kind=CandidateKind.MOTIF, start=i)
            )
    return pool


@pytest.fixture(scope="module")
def planted_pool():
    from repro.datasets.generators import make_planted_dataset

    dataset = make_planted_dataset(n_classes=2, n_instances=16, length=80, seed=3)
    pool = generate_candidates(dataset, q_n=8, q_s=3, lengths=[12, 20], seed=0)
    return dataset, pool


class TestClassDABF:
    def test_build_fits_distribution(self, planted_pool):
        _dataset, pool = planted_pool
        cdabf = ClassDABF(label=0, seed=0)
        cdabf.build(pool.all_of_class(0))
        assert cdabf.distribution is not None
        assert cdabf.lengths == [12, 20]
        assert cdabf.n_items() == len(pool.all_of_class(0))

    def test_member_query_is_close_to_most(self, planted_pool):
        """An element of the set should land inside its own distribution."""
        _dataset, pool = planted_pool
        cdabf = ClassDABF(label=0, seed=0)
        members = pool.all_of_class(0)
        cdabf.build(members)
        inside = sum(cdabf.is_close_to_most(m.values, theta=3.0) for m in members)
        assert inside / len(members) > 0.85  # 3-sigma covers ~89%+

    def test_far_query_is_not_close(self, planted_pool):
        _dataset, pool = planted_pool
        cdabf = ClassDABF(label=0, seed=0)
        cdabf.build(pool.all_of_class(0))
        absurd = np.full(12, 1e6)
        assert not cdabf.is_close_to_most(absurd)

    def test_unseen_length_routed_to_nearest(self, planted_pool):
        _dataset, pool = planted_pool
        cdabf = ClassDABF(label=0, seed=0)
        cdabf.build(pool.all_of_class(0))
        z = cdabf.query_zscore(np.random.default_rng(0).normal(size=15))
        assert np.isfinite(z) or z == float("inf")

    def test_bucket_rank_in_range(self, planted_pool):
        _dataset, pool = planted_pool
        cdabf = ClassDABF(label=0, seed=0)
        cdabf.build(pool.all_of_class(0))
        for length in (12, 15):  # 15 routes to the nearest table
            rows = np.random.default_rng(0).normal(size=(5, length))
            ranks = cdabf.bucket_ranks_batch(rows)
            assert ranks.shape == (5,)
            assert (ranks >= 0).all()
            assert (ranks <= cdabf.rank_denominator(length) + 1).all()

    def test_bucket_ranks_batch_rejects_one_row(self, planted_pool):
        _dataset, pool = planted_pool
        cdabf = ClassDABF(label=0, seed=0)
        cdabf.build(pool.all_of_class(0))
        with pytest.raises(ValidationError, match="2-D"):
            cdabf.bucket_ranks_batch(np.zeros(12))

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            ClassDABF(label=0).build([])


class TestDABF:
    def test_build_covers_all_classes(self, planted_pool):
        _dataset, pool = planted_pool
        dabf = DABF.build(pool, seed=0)
        assert dabf.classes == [0, 1]
        assert set(dabf.fits()) == {0, 1}

    def test_prune_removes_nondiscriminative(self, planted_pool):
        _dataset, pool = planted_pool
        dabf = DABF.build(pool, seed=0)
        pruned, report = dabf.prune(pool)
        assert len(pruned) == len(pool) - report.n_removed
        assert report.n_removed + report.n_kept == len(pool)

    def test_prune_does_not_mutate_input(self, planted_pool):
        _dataset, pool = planted_pool
        size_before = len(pool)
        dabf = DABF.build(pool, seed=0)
        dabf.prune(pool)
        assert len(pool) == size_before

    def test_theta_monotonicity(self, planted_pool):
        """A larger theta prunes at least as many candidates."""
        _dataset, pool = planted_pool
        dabf = DABF.build(pool, seed=0)
        _p1, strict = dabf.prune(pool, theta=1.0)
        _p2, loose = dabf.prune(pool, theta=6.0)
        assert loose.n_removed >= strict.n_removed

    def test_empty_dabf_rejected(self):
        with pytest.raises(ValidationError):
            DABF({})

    @pytest.mark.parametrize("scheme", ["l2", "cosine", "hamming"])
    def test_all_lsh_schemes_build(self, planted_pool, scheme):
        _dataset, pool = planted_pool
        dabf = DABF.build(pool, scheme=scheme, seed=0)
        _pruned, report = dabf.prune(pool)
        assert report.n_removed >= 0


def _refuse_to_fit(*_args, **_kwargs):
    raise AssertionError("fit_best_distribution called")


def _eager_zscores(cdabf: ClassDABF) -> np.ndarray:
    """The pooled per-length z-scores, recomputed from the member norms."""
    pooled = []
    for length in cdabf.lengths:
        norms = cdabf._tables[length].table.member_norms()
        mean, std = float(norms.mean()), float(norms.std())
        flat = std < FLAT_STD
        pooled.append(np.zeros_like(norms) if flat else (norms - mean) / std)
    return np.concatenate(pooled)


class TestLazyDistributionFit:
    """The Table III fit runs on first read, never in build or prune."""

    def test_build_prune_and_ranks_never_fit(self, planted_pool, monkeypatch):
        _dataset, pool = planted_pool
        monkeypatch.setattr(dabf_module, "fit_best_distribution", _refuse_to_fit)
        dabf = DABF.build(pool, seed=0)
        _pruned, report = dabf.prune(pool)
        assert report.n_removed + report.n_kept == len(pool)
        cdabf = dabf.per_class[0]
        rows = np.stack([c.values for c in pool.all_of_class(0) if c.length == 12])
        assert cdabf.bucket_ranks_batch(rows).shape == (rows.shape[0],)
        assert np.isfinite(cdabf.query_zscore(rows[0]))

    @pytest.mark.parametrize("flat_length", [False, True])
    def test_first_read_equals_an_eager_fit(self, planted_pool, flat_length):
        _dataset, pool = planted_pool
        members = pool.all_of_class(0)
        if flat_length:  # one length whose members all hash to one norm
            members = members + [
                Candidate(values=np.ones(7), label=0, kind=CandidateKind.MOTIF, start=i)
                for i in range(4)
            ]
        cdabf = ClassDABF(label=0, bins=12, seed=0)
        cdabf.build(members)
        best, fits = fit_best_distribution(_eager_zscores(cdabf), bins=12)
        assert cdabf.distribution == best
        assert cdabf.all_fits == fits
        dabf = DABF({0: cdabf})
        assert dabf.fits() == {0: best}

    def test_second_read_does_not_refit(self, planted_pool, monkeypatch):
        _dataset, pool = planted_pool
        calls = []

        def counting_fit(values, bins):
            calls.append(bins)
            return fit_best_distribution(values, bins=bins)

        monkeypatch.setattr(dabf_module, "fit_best_distribution", counting_fit)
        dabf = DABF.build(pool, bins=10, seed=0)
        assert calls == []
        first = dabf.fits()
        assert calls == [10, 10]
        for cdabf in dabf.per_class.values():
            assert cdabf.distribution is not None
            assert cdabf.all_fits
        assert dabf.fits() == first
        assert calls == [10, 10]

    def test_unbuilt_class_reads_no_fit(self):
        cdabf = ClassDABF(label=0)
        assert cdabf.distribution is None
        assert cdabf.all_fits == []


class TestNaivePruner:
    def test_identical_classes_fully_pruned(self, rng):
        """Two classes with identical candidates: everything is close."""
        shared = [rng.normal(size=10) for _ in range(8)]
        pool = _pool_from_arrays({0: shared, 1: [s.copy() for s in shared]})
        pruner = NaivePruner(pool, seed=0)
        _pruned, report = pruner.prune(pool)
        assert report.n_removed == len(pool)

    def test_disjoint_classes_kept(self, rng):
        a = [rng.normal(size=10) for _ in range(8)]
        b = [rng.normal(size=10) + 100.0 for _ in range(8)]
        pool = _pool_from_arrays({0: a, 1: b})
        pruner = NaivePruner(pool, seed=0)
        _pruned, report = pruner.prune(pool)
        assert report.n_removed == 0

    def test_agreement_with_dabf_on_extremes(self, rng):
        """DABF and the naive method agree on clearly-far candidates."""
        a = [rng.normal(size=10) for _ in range(10)]
        b = [rng.normal(size=10) + 50.0 for _ in range(10)]
        pool = _pool_from_arrays({0: a, 1: b})
        dabf = DABF.build(pool, seed=0)
        naive = NaivePruner(pool, seed=0)
        for cand in pool:
            assert dabf.should_prune(cand) == naive.should_prune(cand) == False  # noqa: E712
