"""Tests for repro.core.budget: anytime discovery under resource budgets."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.budget import Budget, BudgetTracker, null_tracker
from repro.core.config import IPSConfig
from repro.core.pipeline import IPS, IPSClassifier
from repro.datasets.generators import make_planted_dataset
from repro.exceptions import ValidationError

pytestmark = pytest.mark.robustness


def _sig(shapelets):
    return [(s.label, s.source_instance, s.start, len(s.values)) for s in shapelets]


def _pool_digest(pool) -> str:
    digest = hashlib.sha256()
    for c in pool:
        digest.update(
            repr(
                (c.label, c.kind.value, c.source_instance, c.start, c.sample_id, c.values.size)
            ).encode()
        )
        digest.update(np.ascontiguousarray(c.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestBudgetObject:
    def test_unbounded_by_default(self):
        assert Budget().unbounded
        assert not Budget(max_seconds=1.0).unbounded

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            Budget(max_seconds=-1.0)
        with pytest.raises(ValidationError):
            Budget(max_candidates=0)
        with pytest.raises(ValidationError):
            Budget(max_memory_mb=-0.5)

    def test_candidate_budget_latches(self):
        tracker = Budget(max_candidates=10).start()
        tracker.charge(5)
        assert not tracker.exhausted
        tracker.charge(5)
        assert tracker.exhausted
        assert "candidate" in tracker.exhausted_reason

    def test_memory_budget(self):
        tracker = Budget(max_memory_mb=1.0).start()
        tracker.charge(1, n_values=200_000)  # 1.6 MB at 8 bytes/value
        assert tracker.exhausted
        assert "memory" in tracker.exhausted_reason

    def test_deadline_budget(self):
        tracker = Budget(max_seconds=0.0).start()
        assert tracker.exhausted
        assert "deadline" in tracker.exhausted_reason

    def test_null_tracker_never_exhausts(self):
        tracker = null_tracker()
        tracker.charge(10**9, n_values=10**9)
        assert not tracker.exhausted

    def test_snapshot_round_trip(self):
        tracker = Budget(max_candidates=100).start()
        tracker.charge(7, n_values=3)
        tracker.record_phase("generation", rounds_completed=2)
        snap = tracker.snapshot()
        assert snap["candidates"] == 7
        assert snap["progress"]["generation"]["rounds_completed"] == 2
        assert snap["exhausted"] is None

    def test_exhausted_reason_is_stable(self):
        tracker = Budget(max_candidates=1, max_seconds=0.0).start()
        tracker.charge(5)
        first = tracker.exhausted_reason
        tracker.charge(5)
        assert tracker.exhausted_reason == first

    def test_tracker_type(self):
        assert isinstance(Budget().start(), BudgetTracker)


@pytest.fixture(scope="module")
def planted():
    return make_planted_dataset(n_classes=2, n_instances=12, length=60, seed=0)


class TestAnytimeIPS:
    def test_zero_deadline_truncates_reproducibly(self, planted):
        config = IPSConfig(q_n=6, q_s=2, k=3, seed=0, budget=Budget(max_seconds=0.0))
        a = IPS(config).discover(planted)
        b = IPS(config).discover(planted)
        assert not a.completed and not b.completed
        assert _sig(a.shapelets) == _sig(b.shapelets)
        progress = a.extra["budget"]["progress"]["generation"]
        assert progress["rounds_completed"] == 1  # first round always runs
        assert progress["truncated"]

    def test_huge_budget_matches_unbudgeted(self, planted):
        base = IPS(IPSConfig(q_n=4, q_s=2, k=3, seed=0)).discover(planted)
        budgeted = IPS(
            IPSConfig(q_n=4, q_s=2, k=3, seed=0, budget=Budget(max_seconds=1e9))
        ).discover(planted)
        assert budgeted.completed
        assert _sig(base.shapelets) == _sig(budgeted.shapelets)

    def test_candidate_budget_truncates_deterministically(self, planted):
        config = IPSConfig(
            q_n=8, q_s=2, k=3, seed=0, budget=Budget(max_candidates=25)
        )
        a = IPS(config).discover(planted)
        b = IPS(config).discover(planted)
        assert not a.completed
        assert _sig(a.shapelets) == _sig(b.shapelets)
        assert a.n_candidates_generated == b.n_candidates_generated

    @pytest.mark.parametrize(
        ("budget", "rounds", "n_candidates", "digest"),
        [
            (
                Budget(max_seconds=0.0),
                1,
                20,
                "f54515b539e1749c0c134c3a344eeb1ea96f106f198c540672ca194af14222e5",
            ),
            (
                Budget(max_candidates=25),
                2,
                40,
                "9f8036f22d36f6d4adf38220d993011bd048b20466f7db79bf026e445e5de0d8",
            ),
        ],
        ids=["zero_deadline", "max_candidates"],
    )
    def test_truncation_round_and_pool_are_pinned(
        self, planted, budget, rounds, n_candidates, digest
    ):
        """Generation runs whole rounds, so a budget stops it at the same
        round with the same pool as when every instance profile ran its
        own STOMP loop (digests computed with that loop)."""
        q_n = 6 if budget.max_seconds is not None else 8
        ips = IPS(IPSConfig(q_n=q_n, q_s=2, k=3, seed=0, budget=budget))
        result = ips.discover(planted)
        assert not result.completed
        assert result.extra["budget"]["progress"]["generation"]["rounds_completed"] == rounds
        assert len(ips.pool_) == n_candidates
        assert _pool_digest(ips.pool_) == digest

    def test_budgeted_classifier_still_usable(self, planted):
        """Acceptance: tight budget -> no exception, above-chance accuracy."""
        config = IPSConfig(q_n=6, q_s=2, k=3, seed=0, budget=Budget(max_seconds=0.0))
        clf = IPSClassifier(config).fit_dataset(planted)
        assert clf.discovery_result_ is not None
        assert not clf.discovery_result_.completed
        y = planted.classes_[planted.y]
        assert clf.score(planted.X, y) > 0.5  # above chance for 2 classes
        assert clf.discovery_result_.extra["budget"]["exhausted"]

    def test_unbudgeted_result_has_no_budget_extra(self, planted):
        result = IPS(IPSConfig(q_n=3, q_s=2, k=2, seed=0)).discover(planted)
        assert result.completed
        assert "budget" not in result.extra


class TestAnytimeDistributed:
    def test_zero_deadline_reproducible(self, planted):
        from repro.distributed.discovery import DistributedIPS

        config = IPSConfig(q_n=4, q_s=2, k=3, seed=0, budget=Budget(max_seconds=0.0))
        a = DistributedIPS(config).discover(planted)
        b = DistributedIPS(config).discover(planted)
        assert not a.completed and not b.completed
        assert _sig(a.shapelets) == _sig(b.shapelets)

    def test_fault_tolerant_path_respects_budget(self, planted):
        from repro.core.config import FaultToleranceConfig
        from repro.distributed.discovery import DistributedIPS

        config = IPSConfig(
            q_n=4,
            q_s=2,
            k=3,
            seed=0,
            budget=Budget(max_seconds=0.0),
            fault_tolerance=FaultToleranceConfig(base_delay=0.0),
        )
        a = DistributedIPS(config).discover(planted)
        b = DistributedIPS(config).discover(planted)
        assert not a.completed
        assert _sig(a.shapelets) == _sig(b.shapelets)


class TestAnytimeBaselines:
    def test_mp_baseline_budget(self, planted):
        from repro.baselines.mp_base import MPBaseline

        X, y = planted.X, planted.classes_[planted.y]
        a = MPBaseline(seed=0, budget=Budget(max_seconds=0.0)).fit(X, y)
        b = MPBaseline(seed=0, budget=Budget(max_seconds=0.0)).fit(X, y)
        assert not a.completed_ and not b.completed_
        assert _sig(a.shapelets_) == _sig(b.shapelets_)
        assert a.score(X, y) > 0.5

    def test_mp_baseline_unbudgeted_unchanged(self, planted):
        from repro.baselines.mp_base import MPBaseline

        X, y = planted.X, planted.classes_[planted.y]
        plain = MPBaseline(seed=0).fit(X, y)
        big = MPBaseline(seed=0, budget=Budget(max_seconds=1e9)).fit(X, y)
        assert plain.completed_ and big.completed_
        assert _sig(plain.shapelets_) == _sig(big.shapelets_)

    def test_fast_shapelets_budget(self, planted):
        from repro.baselines.fast_shapelets import FastShapelets

        X, y = planted.X, planted.classes_[planted.y]
        a = FastShapelets(seed=0, n_masking_rounds=4, budget=Budget(max_seconds=0.0)).fit(X, y)
        b = FastShapelets(seed=0, n_masking_rounds=4, budget=Budget(max_seconds=0.0)).fit(X, y)
        assert not a.completed_ and not b.completed_
        assert _sig(a.shapelets_) == _sig(b.shapelets_)
        assert len(a.shapelets_) >= 1
        preds = a.predict(X)
        assert preds.shape == (X.shape[0],)


class TestBenchlibBudget:
    def test_evaluate_method_reports_truncation(self, planted):
        from repro.benchlib.runners import evaluate_method
        from repro.datasets.loader import TrainTestData
        from repro.datasets.registry import DatasetProfile

        profile = DatasetProfile(
            name="planted",
            n_classes=2,
            n_train=planted.n_series,
            n_test=planted.n_series,
            length=planted.series_length,
            category="Simulated",
            generator="planted",
        )
        data = TrainTestData(train=planted, test=planted, profile=profile)
        result = evaluate_method(
            "IPS",
            data,
            k=3,
            seed=0,
            q_n=4,
            q_s=2,
            budget=Budget(max_seconds=0.0),
        )
        assert not result.completed
        assert result.accuracy > 0.5
