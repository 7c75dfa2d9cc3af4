"""Tests for repro.core.pipeline: IPS discovery + IPSClassifier."""

from __future__ import annotations

import numpy as np
import pytest

import repro.filters.dabf as dabf_module
from repro.core.config import IPSConfig
from repro.core.pipeline import IPS, IPSClassifier, score_with_class_fallback
from repro.core.utility import UtilityScores
from repro.datasets.generators import make_planted_dataset
from repro.exceptions import EmptyPoolError, NotFittedError, ValidationError
from repro.instanceprofile.candidates import CandidatePool
from repro.ts.series import Dataset
from repro.types import Candidate, CandidateKind


@pytest.fixture(scope="module")
def planted_split():
    train = make_planted_dataset(n_classes=2, n_instances=20, length=80, seed=21)
    test = make_planted_dataset(n_classes=2, n_instances=30, length=80, seed=21)
    # Same seed -> same prototypes; different slice below ensures overlap-free.
    full = make_planted_dataset(n_classes=2, n_instances=50, length=80, seed=21)
    train = Dataset(X=full.X[:20], y=full.classes_[full.y[:20]], name="train")
    test = Dataset(X=full.X[20:], y=full.classes_[full.y[20:]], name="test")
    return train, test


def _fast_config(**overrides) -> IPSConfig:
    defaults = dict(q_n=6, q_s=3, k=3, length_ratios=(0.15, 0.3), seed=0)
    defaults.update(overrides)
    return IPSConfig(**defaults)


class TestIPSDiscovery:
    def test_discovers_k_per_class(self, planted_split):
        train, _test = planted_split
        result = IPS(_fast_config()).discover(train)
        per_class = {}
        for shp in result.shapelets:
            per_class[shp.label] = per_class.get(shp.label, 0) + 1
        assert set(per_class) == {0, 1}
        assert all(count <= 3 for count in per_class.values())

    def test_stage_times_recorded(self, planted_split):
        train, _test = planted_split
        result = IPS(_fast_config()).discover(train)
        assert result.time_candidate_generation > 0.0
        assert result.time_pruning > 0.0
        assert result.time_selection > 0.0
        assert result.total_time == pytest.approx(
            result.time_candidate_generation
            + result.time_pruning
            + result.time_selection
        )

    def test_pruning_reduces_pool(self, planted_split):
        train, _test = planted_split
        result = IPS(_fast_config()).discover(train)
        assert result.n_candidates_after_pruning <= result.n_candidates_generated

    def test_shapelet_provenance_round_trips(self, planted_split):
        train, _test = planted_split
        result = IPS(_fast_config()).discover(train)
        for shp in result.shapelets:
            row = train.X[shp.source_instance]
            assert np.allclose(row[shp.start : shp.start + shp.length], shp.values)

    def test_deterministic(self, planted_split):
        train, _test = planted_split
        r1 = IPS(_fast_config()).discover(train)
        r2 = IPS(_fast_config()).discover(train)
        assert len(r1.shapelets) == len(r2.shapelets)
        for a, b in zip(r1.shapelets, r2.shapelets):
            assert np.array_equal(a.values, b.values)

    def test_no_dabf_arm(self, planted_split):
        train, _test = planted_split
        result = IPS(_fast_config(use_dabf=False)).discover(train)
        assert result.shapelets

    def test_no_dt_cr_arm(self, planted_split):
        train, _test = planted_split
        result = IPS(_fast_config(use_dt_cr=False)).discover(train)
        assert result.shapelets

    def test_single_class_dataset_skips_pruning(self):
        ds = make_planted_dataset(n_classes=1, n_instances=6, length=60, seed=0)
        result = IPS(_fast_config()).discover(ds)
        assert result.shapelets
        assert result.n_candidates_after_pruning == result.n_candidates_generated


def _pool_with(labels: list[int]) -> CandidatePool:
    pool = CandidatePool()
    for i, label in enumerate(labels):
        pool.add(
            Candidate(
                values=np.arange(4, dtype=float) + i,
                label=label,
                kind=CandidateKind.MOTIF,
                source_instance=i,
                start=0,
                sample_id=0,
            )
        )
    return pool


def _trivial_scores(motifs: list[Candidate]) -> UtilityScores:
    n = len(motifs)
    return UtilityScores(
        candidates=motifs, intra=np.zeros(n), inter=np.zeros(n), instance=np.zeros(n)
    )


@pytest.mark.robustness
class TestScoreWithClassFallback:
    def test_healthy_classes_score_from_pruned_pool(self):
        pool = _pool_with([0, 0, 1])
        pruned = _pool_with([0, 1])
        scored_pools = []

        def scorer(active, label):
            scored_pools.append(active)
            return _trivial_scores(active.motifs(label))

        scores = score_with_class_fallback(scorer, pruned, pool, [0, 1])
        assert set(scores) == {0, 1}
        assert all(active is pruned for active in scored_pools)

    def test_emptied_class_falls_back_to_unpruned(self):
        pool = _pool_with([0, 0, 1])
        pruned = _pool_with([0])  # class 1 lost everything

        def scorer(active, label):
            return _trivial_scores(active.motifs(label))

        with pytest.warns(RuntimeWarning, match="class 1: degraded"):
            scores = score_with_class_fallback(scorer, pruned, pool, [0, 1])
        assert len(scores[1].candidates) == 1  # recovered from `pool`
        assert len(scores[0].candidates) == 1

    def test_empty_pool_error_from_scorer_is_caught(self):
        pool = _pool_with([0, 1])
        pruned = _pool_with([0, 1])
        calls = {"count": 0}

        def scorer(active, label):
            if label == 1 and calls["count"] == 0:
                calls["count"] += 1
                raise EmptyPoolError("degraded per-class pool")
            return _trivial_scores(active.motifs(label))

        with pytest.warns(RuntimeWarning, match="falling back"):
            scores = score_with_class_fallback(scorer, pruned, pool, [0, 1])
        assert len(scores[1].candidates) == 1


class TestIPSClassifier:
    def test_fit_predict_accuracy(self, planted_split):
        train, test = planted_split
        clf = IPSClassifier(_fast_config()).fit_dataset(train)
        accuracy = clf.score(test.X, test.classes_[test.y])
        assert accuracy > 0.7  # planted patterns are separable

    def test_predict_returns_original_labels(self):
        full = make_planted_dataset(n_classes=2, n_instances=24, length=60, seed=3)
        # Remap labels to {10, 20}.
        y = np.where(full.y == 0, 10, 20)
        clf = IPSClassifier(_fast_config()).fit(full.X, y)
        preds = clf.predict(full.X)
        assert set(np.unique(preds)).issubset({10, 20})

    def test_unfitted_predict_rejected(self, rng):
        clf = IPSClassifier(_fast_config())
        with pytest.raises(NotFittedError):
            clf.predict(rng.normal(size=(2, 60)))

    def test_score_rejects_unseen_labels(self, planted_split):
        train, test = planted_split
        clf = IPSClassifier(_fast_config()).fit_dataset(train)
        bad_labels = np.full(test.n_series, 99)
        with pytest.raises(ValidationError):
            clf.score(test.X, bad_labels)

    def test_transform_exposes_features(self, planted_split):
        train, test = planted_split
        clf = IPSClassifier(_fast_config()).fit_dataset(train)
        features = clf.transform(test.X)
        assert features.shape == (test.n_series, len(clf.shapelets_))
        assert np.all(features >= 0.0)

    def test_every_svm_stops_on_the_tolerance_rule(self):
        """Each one-vs-rest SVM over 8-class shapelet features converges
        (PGmax - PGmin <= tol) before its epoch cap."""
        data = make_planted_dataset(n_classes=8, n_instances=160, length=56, seed=4)
        clf = IPSClassifier(IPSConfig(seed=0)).fit_dataset(data)
        machines = clf.model_.classifier._models
        assert len(machines) == 8
        for machine in machines:
            assert 0 < machine.n_iter_ < machine.max_epochs

    def test_fit_and_predict_never_fit_a_distribution(self, monkeypatch):
        """The DABF's Table III fit is for analysis: with the default
        use_dabf and use_dt_cr, neither fit nor predict computes it."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("fit_best_distribution called")

        monkeypatch.setattr(dabf_module, "fit_best_distribution", refuse)
        full = make_planted_dataset(n_classes=3, n_instances=24, length=60, seed=5)
        config = IPSConfig()
        assert config.use_dabf and config.use_dt_cr
        clf = IPSClassifier(config).fit_dataset(full)
        assert clf.predict(full.X).shape == (full.n_series,)

    @pytest.mark.parametrize("final_classifier", ["svm", "nb", "tree", "1nn"])
    def test_scores_do_not_depend_on_batch_size(
        self, planted_split, final_classifier
    ):
        """Served one row at a time, a series scores the offline bits."""
        train, test = planted_split
        clf = IPSClassifier(
            _fast_config(final_classifier=final_classifier)
        ).fit_dataset(train)
        batch = clf.decision_function(test.X)
        for i in range(test.n_series):
            np.testing.assert_array_equal(
                clf.decision_function(test.X[i : i + 1])[0], batch[i]
            )
