"""Chaos suite for the serving path (PR acceptance).

Under every injected fault class — worker crash, hang, slow worker,
corrupt payload, corrupt artifact, overload — the service must:

1. never deadlock (every test runs under a ``timeout_guard``);
2. terminate every submitted request with either a prediction or a
   *typed* :class:`~repro.exceptions.ServeError`; and
3. keep every *successful* response bit-identical to offline
   ``IPSClassifier.predict`` — degradation may cost latency or
   availability, never correctness.

Faults are driven by the same deterministic
:class:`~repro.distributed.faults.FaultPlan` engine as the distributed
suite, keyed by request seed, so each campaign replays bit-for-bit.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.distributed.faults import FaultPlan
from repro.exceptions import (
    ArtifactIntegrityError,
    DeadlineExceededError,
    QueueFullError,
    RequestFailedError,
    RequestSheddedError,
    ServeError,
)
from repro.serve import (
    CORRUPT_LABEL,
    InferenceService,
    RequestFaultInjector,
    ServeConfig,
    load_artifact,
    save_artifact,
)

pytestmark = [pytest.mark.robustness, pytest.mark.timeout_guard(90)]


@pytest.fixture(scope="module")
def request_matrix(tiny_two_class):
    rng = np.random.default_rng(42)
    rows = rng.integers(0, tiny_two_class.n_series, size=40)
    return tiny_two_class.X[rows] + 0.05 * rng.normal(
        size=(40, tiny_two_class.series_length)
    )


@pytest.fixture(scope="module")
def offline(frozen_classifier, request_matrix):
    return frozen_classifier.predict(request_matrix)


def run_campaign(classifier, X, plan, config=None, metrics=None):
    config = config or ServeConfig(
        queue_depth=len(X), max_batch=8, breaker_reset_s=0.01
    )
    with InferenceService(
        classifier, config, fault_plan=plan, metrics=metrics
    ) as service:
        results = service.predict_many(X)
        stats = service.stats()
    return results, stats


def assert_all_terminated(results, offline, allowed_errors):
    """Invariants 2 and 3: typed termination, bit-identical successes."""
    assert len(results) == len(offline)
    for i, (label, error) in enumerate(results):
        if error is None:
            assert label == offline[i], f"request {i} answered wrongly"
        else:
            assert isinstance(error, ServeError)
            assert isinstance(error, allowed_errors), (
                f"request {i}: unexpected {type(error).__name__}"
            )


class TestFaultCampaigns:
    def test_worker_crashes_recovered_by_serial_retries(
        self, frozen_classifier, request_matrix, offline
    ):
        results, stats = run_campaign(
            frozen_classifier,
            request_matrix,
            FaultPlan(crash_rate=0.25, seed=101),
        )
        assert_all_terminated(results, offline, (RequestFailedError,))
        n_ok = sum(1 for _l, error in results if error is None)
        # Per-attempt crash odds of 0.25 across 1 batched + 3 serial
        # attempts: near-certain recovery for almost every request.
        assert n_ok >= len(results) - 2
        assert stats["serial_fallbacks"] > 0

    def test_hangs_surface_as_timeouts_and_recover(
        self, frozen_classifier, request_matrix, offline
    ):
        results, stats = run_campaign(
            frozen_classifier,
            request_matrix,
            FaultPlan(hang_rate=0.3, seed=13),
        )
        assert_all_terminated(results, offline, (RequestFailedError,))
        n_ok = sum(1 for _l, error in results if error is None)
        assert n_ok >= len(results) - 2
        assert stats["serial_fallbacks"] > 0

    def test_slow_workers_only_add_latency(
        self, frozen_classifier, request_matrix, offline
    ):
        """The satellite ``slow`` fault: jitter delays answers, never
        changes them — a zero-error, bit-identical campaign."""
        results, stats = run_campaign(
            frozen_classifier,
            request_matrix,
            FaultPlan(slow_rate=0.6, slow_seconds=0.002, seed=29),
        )
        assert all(error is None for _label, error in results)
        np.testing.assert_array_equal(
            np.array([label for label, _ in results]), offline
        )
        assert stats["failed"] == 0

    def test_corrupt_payloads_never_escape(
        self, frozen_classifier, request_matrix, offline
    ):
        results, _stats = run_campaign(
            frozen_classifier,
            request_matrix,
            FaultPlan(nan_rate=0.4, seed=7),
        )
        assert_all_terminated(results, offline, (RequestFailedError,))
        assert all(
            label != CORRUPT_LABEL for label, _e in results if label is not None
        )

    def test_total_failure_opens_breaker_but_stays_typed(
        self, frozen_classifier, request_matrix, offline
    ):
        """crash_rate=1.0: nothing can succeed, so every request must
        fail *typed*, the breaker must trip, and the service must keep
        accepting (and failing) work instead of wedging."""
        # max_batch=2: breaker failures are counted per *batch*, so the
        # threshold needs several distinct batch deaths to trip.
        results, stats = run_campaign(
            frozen_classifier,
            request_matrix[:12],
            FaultPlan(crash_rate=1.0, seed=3),
            config=ServeConfig(
                queue_depth=12, max_batch=2, breaker_reset_s=0.01
            ),
        )
        assert all(error is not None for _label, error in results)
        assert all(
            isinstance(error, RequestFailedError) for _l, error in results
        )
        assert stats["breaker"]["times_opened"] >= 1
        assert stats["failed"] == 12

    def test_breaker_recovers_after_fault_burst(
        self, frozen_classifier, request_matrix, offline
    ):
        """Open breaker degrades to serial; once faults stop, the
        half-open probe closes it again and batching resumes."""
        config = ServeConfig(
            queue_depth=64, max_batch=4, breaker_threshold=1,
            breaker_reset_s=0.01,
        )
        plan = FaultPlan(crash_rate=1.0, seed=3)
        with InferenceService(
            frozen_classifier, config, fault_plan=plan
        ) as service:
            for row in request_matrix[:3]:
                with pytest.raises(RequestFailedError):
                    service.predict_one(row)
            assert service.stats()["breaker"]["times_opened"] >= 1
            # Faults off: drop the injector, wait out the cool-down so
            # the next request becomes the half-open probe that heals.
            service._injector = None
            time.sleep(0.05)
            labels = [service.predict_one(row) for row in request_matrix[:6]]
            stats = service.stats()
        np.testing.assert_array_equal(np.array(labels), offline[:6])
        assert stats["breaker"]["state"] == "closed"

    def test_deadlines_enforced_while_workers_crawl(
        self, frozen_classifier, request_matrix, offline
    ):
        """Slow faults + a tight deadline: late requests expire with
        DeadlineExceededError at the batch boundary instead of queueing
        forever behind the crawl."""
        config = ServeConfig(queue_depth=64, max_batch=1)
        plan = FaultPlan(slow_rate=1.0, slow_seconds=0.1, seed=11)
        with InferenceService(
            frozen_classifier, config, fault_plan=plan
        ) as service:
            results = service.predict_many(request_matrix[:10], deadline_s=0.08)
        assert_all_terminated(
            results, offline[:10], (DeadlineExceededError, RequestFailedError)
        )
        expired = sum(
            1
            for _l, error in results
            if isinstance(error, DeadlineExceededError)
        )
        assert expired > 0

    def test_overload_sheds_oldest_but_accounts_for_everything(
        self, frozen_classifier, request_matrix, offline
    ):
        config = ServeConfig(
            queue_depth=4, shed_policy="shed-oldest", max_batch=2
        )
        plan = FaultPlan(slow_rate=1.0, slow_seconds=0.01, seed=5)
        with InferenceService(
            frozen_classifier, config, fault_plan=plan
        ) as service:
            results = service.predict_many(request_matrix)
            stats = service.stats()
        assert_all_terminated(results, offline, (RequestSheddedError,))
        shed = sum(
            1 for _l, e in results if isinstance(e, RequestSheddedError)
        )
        n_ok = sum(1 for _l, e in results if e is None)
        assert shed > 0 and shed == stats["shed"]
        assert n_ok + shed == len(results)  # nothing lost, nothing hung

    def test_overload_reject_newest_pushes_back(
        self, frozen_classifier, request_matrix, offline
    ):
        config = ServeConfig(
            queue_depth=4, shed_policy="reject-newest", max_batch=2
        )
        plan = FaultPlan(slow_rate=1.0, slow_seconds=0.01, seed=5)
        with InferenceService(
            frozen_classifier, config, fault_plan=plan
        ) as service:
            results = service.predict_many(request_matrix)
            stats = service.stats()
        assert_all_terminated(results, offline, (QueueFullError,))
        rejected = sum(
            1 for _l, e in results if isinstance(e, QueueFullError)
        )
        assert rejected > 0 and rejected == stats["rejected"]

    def test_mixed_campaign_all_faults_at_once(
        self, frozen_classifier, request_matrix, offline
    ):
        plan = FaultPlan(
            crash_rate=0.15,
            hang_rate=0.1,
            nan_rate=0.15,
            slow_rate=0.15,
            slow_seconds=0.002,
            seed=97,
        )
        results, stats = run_campaign(frozen_classifier, request_matrix, plan)
        assert_all_terminated(results, offline, (RequestFailedError,))
        assert stats["submitted"] == len(request_matrix)
        assert (
            stats["completed"] + stats["failed"] + stats["expired"]
            == len(request_matrix)
        )


class TestChaosTelemetry:
    """Chaos-path metric assertions: the live ``serve.*`` counters must
    reconcile exactly with the typed per-request outcomes — telemetry
    that drifts from the futures under faults is worse than none."""

    @staticmethod
    def _error_counts(results):
        counts: dict[type, int] = {}
        for _label, error in results:
            if error is not None:
                counts[type(error)] = counts.get(type(error), 0) + 1
        return counts

    def test_shed_counters_reconcile_under_overload(
        self, frozen_classifier, request_matrix, offline
    ):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        results, stats = run_campaign(
            frozen_classifier,
            request_matrix,
            FaultPlan(slow_rate=1.0, slow_seconds=0.01, seed=5),
            config=ServeConfig(
                queue_depth=4, shed_policy="shed-oldest", max_batch=2
            ),
            metrics=registry,
        )
        assert_all_terminated(results, offline, (RequestSheddedError,))
        counters = registry.snapshot()["counters"]
        shed_errors = self._error_counts(results).get(RequestSheddedError, 0)
        assert shed_errors > 0
        assert counters["serve.shed"] == stats["shed"] == shed_errors
        assert counters["serve.submitted"] == len(request_matrix)
        assert (
            counters["serve.completed"] + counters["serve.shed"]
            == len(request_matrix)
        )

    def test_reject_counters_reconcile_under_backpressure(
        self, frozen_classifier, request_matrix, offline
    ):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        results, stats = run_campaign(
            frozen_classifier,
            request_matrix,
            FaultPlan(slow_rate=1.0, slow_seconds=0.01, seed=5),
            config=ServeConfig(
                queue_depth=4, shed_policy="reject-newest", max_batch=2
            ),
            metrics=registry,
        )
        assert_all_terminated(results, offline, (QueueFullError,))
        counters = registry.snapshot()["counters"]
        rejected = self._error_counts(results).get(QueueFullError, 0)
        assert rejected > 0
        assert counters["serve.rejected"] == stats["rejected"] == rejected
        # Rejected requests never enter the queue, so submitted counts
        # only the admitted ones — and they all completed.
        assert counters["serve.submitted"] == len(request_matrix) - rejected
        assert counters["serve.completed"] == counters["serve.submitted"]

    def test_breaker_open_reaches_gauge_and_failed_counter(
        self, frozen_classifier, request_matrix, offline
    ):
        from repro.obs import MetricsRegistry
        from repro.serve.service import BREAKER_STATE_GAUGE

        registry = MetricsRegistry()
        results, stats = run_campaign(
            frozen_classifier,
            request_matrix[:12],
            FaultPlan(crash_rate=1.0, seed=3),
            config=ServeConfig(
                # reset_s far above the campaign length: the breaker
                # stays open once tripped, so the final gauge is stable.
                queue_depth=12, max_batch=2, breaker_reset_s=60.0
            ),
            metrics=registry,
        )
        assert all(error is not None for _label, error in results)
        assert stats["breaker"]["times_opened"] >= 1
        snap = registry.snapshot()
        failed = self._error_counts(results).get(RequestFailedError, 0)
        assert snap["counters"]["serve.failed"] == stats["failed"] == failed
        assert snap["counters"]["serve.serial_fallbacks"] > 0
        assert snap["gauges"]["serve.breaker_state"] == BREAKER_STATE_GAUGE["open"]

    def test_mixed_fault_totals_reconcile(
        self, frozen_classifier, request_matrix, offline
    ):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        results, _stats = run_campaign(
            frozen_classifier,
            request_matrix,
            FaultPlan(
                crash_rate=0.15,
                hang_rate=0.1,
                nan_rate=0.15,
                slow_rate=0.15,
                slow_seconds=0.002,
                seed=97,
            ),
            metrics=registry,
        )
        assert_all_terminated(results, offline, (RequestFailedError,))
        counters = registry.snapshot()["counters"]
        typed = self._error_counts(results)
        n_errors = sum(typed.values())
        # Counters appear on first increment; absent means zero.
        expired = counters.get("serve.expired", 0)
        assert (
            counters["serve.completed"] + counters["serve.failed"] + expired
            == counters["serve.submitted"]
            == len(request_matrix)
        )
        assert counters["serve.failed"] + expired == n_errors
        # Latency telemetry covered every terminated request.
        windows = registry.snapshot()["windows"]
        assert (
            windows["serve.request_latency_seconds"]["count"]
            == len(request_matrix)
        )


class TestCorruptArtifactChaos:
    def test_bit_flip_refused_before_serving(
        self, tmp_path, frozen_classifier
    ):
        artifact = tmp_path / "model"
        save_artifact(frozen_classifier, artifact)
        payload = bytearray((artifact / "model.bin").read_bytes())
        payload[len(payload) // 3] ^= 0x01  # single flipped bit
        (artifact / "model.bin").write_bytes(bytes(payload))
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            load_artifact(artifact)

    def test_truncated_payload_refused(self, tmp_path, frozen_classifier):
        artifact = tmp_path / "model"
        save_artifact(frozen_classifier, artifact)
        payload = (artifact / "model.bin").read_bytes()
        (artifact / "model.bin").write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            load_artifact(artifact)


class TestDeterminismAndSurvival:
    def test_fault_decisions_replay_bit_for_bit(self):
        kwargs = dict(
            crash_rate=0.2, hang_rate=0.1, nan_rate=0.2, slow_rate=0.2, seed=77
        )
        a = RequestFaultInjector(FaultPlan(**kwargs))
        b = RequestFaultInjector(FaultPlan(**kwargs))
        decisions = [
            (s, t, a.decide(s, t)) for s in range(64) for t in range(3)
        ]
        assert decisions == [
            (s, t, b.decide(s, t)) for s in range(64) for t in range(3)
        ]
        kinds = {d for _s, _t, d in decisions if d is not None}
        assert {"crash", "nan", "slow"} <= kinds  # the campaign is real

    def test_worker_loop_survives_arbitrary_internal_errors(
        self, frozen_classifier, request_matrix, offline
    ):
        """Even a non-Serve exception inside the kernel path must fail
        requests typed and leave the workers alive for the next batch."""
        with InferenceService(frozen_classifier) as service:
            original = service._compute_matrix

            def explode(X, mode):
                raise RuntimeError("boom: simulated kernel bug")

            service._compute_matrix = explode
            results = service.predict_many(request_matrix[:4])
            assert all(
                isinstance(error, RequestFailedError) for _l, error in results
            )
            service._compute_matrix = original  # "deploy the fix"
            assert service.predict_one(request_matrix[0]) == offline[0]
            assert service.running
