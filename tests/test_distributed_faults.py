"""Fault-tolerance layer tests: injection, retries, quorum, checkpoints.

The fault-injection harness doubles as the proof that determinism is
preserved under failure: the acceptance tests assert that a run with
injected crashes and retries enabled produces a candidate pool
bit-identical to the zero-fault run with the same master seed.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FaultToleranceConfig, IPSConfig
from repro.datasets.generators import make_planted_dataset
from repro.distributed import (
    CheckpointStore,
    DistributedIPS,
    DroppedResult,
    FaultInjector,
    FaultPlan,
    RetryingExecutor,
    SerialExecutor,
    unit_key,
)
from repro.distributed.discovery import validate_unit_result
from repro.exceptions import (
    CheckpointError,
    PartialResultError,
    QuorumError,
    UnitTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.types import Candidate, CandidateKind

pytestmark = pytest.mark.robustness


@dataclass(frozen=True)
class FakeUnit:
    """Minimal stand-in for a WorkUnit (the executors only need ``seed``)."""

    seed: int
    payload: int = 0


def make_candidate(value: float = 1.0, label: int = 0) -> Candidate:
    return Candidate(
        values=np.full(4, value),
        label=label,
        kind=CandidateKind.MOTIF,
        source_instance=0,
        start=0,
        sample_id=0,
    )


def echo_worker(unit: FakeUnit) -> list[Candidate]:
    return [make_candidate(value=float(unit.payload))]


@pytest.fixture(scope="module")
def planted():
    return make_planted_dataset(n_classes=2, n_instances=16, length=80, seed=7)


@pytest.fixture(scope="module")
def config():
    return IPSConfig(q_n=6, q_s=3, k=3, length_ratios=(0.15, 0.3), seed=0)


def config_with(base: IPSConfig, **ft_kwargs) -> IPSConfig:
    defaults = dict(max_retries=3, base_delay=0.0)
    defaults.update(ft_kwargs)
    return IPSConfig(
        q_n=base.q_n,
        q_s=base.q_s,
        k=base.k,
        length_ratios=base.length_ratios,
        seed=base.seed,
        fault_tolerance=FaultToleranceConfig(**defaults),
    )


def shapelet_pools_identical(a, b) -> bool:
    if len(a.shapelets) != len(b.shapelets):
        return False
    return all(
        np.array_equal(s1.values, s2.values) and s1.label == s2.label
        for s1, s2 in zip(a.shapelets, b.shapelets)
    )


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValidationError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValidationError):
            FaultPlan(drop_rate=-0.1)
        with pytest.raises(ValidationError):
            FaultPlan(hang_seconds=-1.0)

    def test_decide_is_deterministic(self):
        plan = FaultPlan(crash_rate=0.3, nan_rate=0.3, seed=42)
        for unit_seed in (1, 99, 2**63):
            for attempt in (0, 1, 2):
                assert plan.decide(unit_seed, attempt) == plan.decide(
                    unit_seed, attempt
                )

    def test_decide_varies_with_attempt(self):
        """Faults must be transient across attempts, or retries are useless."""
        plan = FaultPlan(crash_rate=0.5, seed=0)
        fates = {
            (seed, attempt): plan.decide(seed, attempt)
            for seed in range(40)
            for attempt in range(2)
        }
        recovered = sum(
            1
            for seed in range(40)
            if fates[(seed, 0)] == "crash" and fates[(seed, 1)] is None
        )
        assert recovered > 0

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=3)
        assert all(plan.decide(s, 0) is None for s in range(50))

    def test_rate_one_always_fires(self):
        plan = FaultPlan(crash_rate=1.0, seed=3)
        assert all(plan.decide(s, a) == "crash" for s in range(20) for a in range(3))

    def test_slow_rate_validated(self):
        with pytest.raises(ValidationError):
            FaultPlan(slow_rate=-0.1)
        with pytest.raises(ValidationError):
            FaultPlan(slow_seconds=-1.0)

    def test_slow_delay_deterministic_and_bounded(self):
        """The jitter is a pure function of (plan seed, unit, attempt),
        bounded to [0.5x, 1.5x] of ``slow_seconds``."""
        plan = FaultPlan(slow_rate=1.0, slow_seconds=0.01, seed=3)
        delays = [
            plan.slow_delay(s, a) for s in range(20) for a in range(3)
        ]
        assert delays == [
            plan.slow_delay(s, a) for s in range(20) for a in range(3)
        ]
        assert all(0.005 <= d <= 0.015 for d in delays)
        assert len(set(delays)) > 1  # it really is jitter

    def test_appending_slow_kind_preserved_existing_decisions(self):
        """``slow`` was appended to FAULT_KINDS after campaigns already
        existed: the first five uniform draws must be unchanged (numpy
        Generator prefix property), and a plan without slow_rate must
        never decide ``slow`` — so recorded campaigns replay as before."""
        for unit_seed in (0, 7, 2**40):
            for attempt in (0, 1):
                key = [42, unit_seed & 0xFFFFFFFFFFFFFFFF, attempt]
                with_slow = np.random.default_rng(key).random(6)
                legacy = np.random.default_rng(key).random(5)
                assert np.array_equal(with_slow[:5], legacy)
        plan = FaultPlan(
            crash_rate=0.2, nan_rate=0.2, drop_rate=0.2, seed=42
        )
        decisions = {
            plan.decide(s, a) for s in range(200) for a in range(2)
        }
        assert "slow" not in decisions
        assert {"crash", "nan", "drop"} <= decisions


class TestFaultInjector:
    def test_crash_raises(self):
        injector = FaultInjector(echo_worker, FaultPlan(crash_rate=1.0))
        with pytest.raises(WorkerCrashError):
            injector(FakeUnit(seed=1))

    def test_hang_sentinel_raises_timeout(self):
        injector = FaultInjector(echo_worker, FaultPlan(hang_rate=1.0))
        with pytest.raises(UnitTimeoutError):
            injector(FakeUnit(seed=1))

    def test_nan_poisoning_detected_by_validator(self):
        injector = FaultInjector(echo_worker, FaultPlan(nan_rate=1.0))
        poisoned = injector(FakeUnit(seed=1, payload=3))
        assert all(np.all(np.isnan(c.values)) for c in poisoned)
        assert validate_unit_result(poisoned) is not None

    def test_drop_returns_marker(self):
        injector = FaultInjector(echo_worker, FaultPlan(drop_rate=1.0))
        result = injector(FakeUnit(seed=1))
        assert isinstance(result, DroppedResult)
        assert validate_unit_result(result) is not None

    def test_duplicate_doubles_payload(self):
        injector = FaultInjector(echo_worker, FaultPlan(duplicate_rate=1.0))
        result = injector(FakeUnit(seed=1, payload=2))
        assert len(result) == 2
        assert result[0] == result[1]
        assert validate_unit_result(result) is None  # dupes merge-time concern

    def test_clean_payload_passes_validation(self):
        injector = FaultInjector(echo_worker, FaultPlan())
        assert validate_unit_result(injector(FakeUnit(seed=1, payload=5))) is None

    def test_slow_delays_but_never_corrupts(self):
        """Satellite fault kind: ``slow`` adds deterministic latency and
        then computes normally — the payload is untouched."""
        plan = FaultPlan(slow_rate=1.0, slow_seconds=0.005, seed=4)
        injector = FaultInjector(echo_worker, plan)
        start = time.perf_counter()
        result = injector(FakeUnit(seed=1, payload=9))
        elapsed = time.perf_counter() - start
        assert elapsed >= plan.slow_delay(1, 0) * 0.5
        assert result == echo_worker(FakeUnit(seed=1, payload=9))
        assert validate_unit_result(result) is None


class _TransientWorker:
    """Fails (raises) for attempts below ``succeed_at``, then succeeds."""

    def __init__(self, succeed_at: int) -> None:
        self.succeed_at = succeed_at

    def for_attempt(self, attempt: int):
        if attempt < self.succeed_at:
            def _fail(unit):
                raise WorkerCrashError(f"transient failure, attempt {attempt}")
            return _fail
        return echo_worker


class _BrokenPoolExecutor:
    """Simulates a broken worker pool: every map call dies pool-level."""

    def map(self, fn, units):
        raise RuntimeError("pool is broken")


class TestRetryingExecutor:
    def test_parameters_validated(self):
        with pytest.raises(ValidationError):
            RetryingExecutor(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryingExecutor(base_delay=0.5, max_delay=0.1)
        with pytest.raises(ValidationError):
            RetryingExecutor(unit_timeout=0.0)

    def test_recovers_transient_failures(self):
        executor = RetryingExecutor(max_retries=2, base_delay=0.0)
        units = [FakeUnit(seed=s, payload=s) for s in range(4)]
        outcomes = executor.map_with_outcomes(_TransientWorker(1), units)
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)

    def test_map_raises_partial_result_on_permanent_failure(self):
        executor = RetryingExecutor(max_retries=1, base_delay=0.0)
        with pytest.raises(PartialResultError, match="failed after 2 attempts"):
            executor.map(_TransientWorker(5), [FakeUnit(seed=1)])

    def test_outcomes_report_permanent_failures_without_raising(self):
        executor = RetryingExecutor(max_retries=1, base_delay=0.0)
        outcomes = executor.map_with_outcomes(
            _TransientWorker(5), [FakeUnit(seed=1)]
        )
        assert len(outcomes) == 1
        assert not outcomes[0].ok
        assert "transient failure" in outcomes[0].error

    def test_validation_failures_are_retried(self):
        injector = FaultInjector(echo_worker, FaultPlan(nan_rate=0.6, seed=2))
        executor = RetryingExecutor(
            max_retries=5, base_delay=0.0, validate=validate_unit_result
        )
        units = [FakeUnit(seed=s, payload=s) for s in range(10)]
        outcomes = executor.map_with_outcomes(injector, units)
        assert all(o.ok for o in outcomes)
        assert any(o.attempts > 1 for o in outcomes)
        for outcome, unit in zip(outcomes, units):
            assert np.all(outcome.value[0].values == float(unit.payload))

    def test_backoff_schedule_is_seeded_and_bounded(self):
        sleeps: list[float] = []
        executor = RetryingExecutor(
            max_retries=3,
            base_delay=0.1,
            max_delay=0.25,
            jitter=0.5,
            seed=7,
            sleep=sleeps.append,
        )
        executor.map_with_outcomes(_TransientWorker(10), [FakeUnit(seed=1)])
        assert len(sleeps) == 3  # one sleep per retry round
        assert sleeps[0] >= 0.1 and sleeps[-1] <= 0.25 * 1.5

        repeat: list[float] = []
        executor2 = RetryingExecutor(
            max_retries=3,
            base_delay=0.1,
            max_delay=0.25,
            jitter=0.5,
            seed=7,
            sleep=repeat.append,
        )
        executor2.map_with_outcomes(_TransientWorker(10), [FakeUnit(seed=1)])
        assert repeat == sleeps

    def test_zero_base_delay_never_sleeps(self):
        sleeps: list[float] = []
        executor = RetryingExecutor(
            max_retries=3, base_delay=0.0, sleep=sleeps.append
        )
        executor.map_with_outcomes(_TransientWorker(2), [FakeUnit(seed=1)])
        assert sleeps == []

    def test_degrades_to_serial_when_pool_breaks(self):
        executor = RetryingExecutor(
            inner=_BrokenPoolExecutor(), max_retries=0, base_delay=0.0
        )
        units = [FakeUnit(seed=s, payload=s) for s in range(3)]
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            values = executor.map(echo_worker, units)
        assert executor.degraded_
        assert isinstance(executor.inner, SerialExecutor)
        assert [v[0].values[0] for v in values] == [0.0, 1.0, 2.0]

    @pytest.mark.timeout_guard(30)
    def test_wall_clock_timeout_marks_unit_failed(self):
        def slow_worker(unit):
            time.sleep(0.05)
            return echo_worker(unit)

        executor = RetryingExecutor(
            max_retries=0, base_delay=0.0, unit_timeout=0.01
        )
        outcomes = executor.map_with_outcomes(slow_worker, [FakeUnit(seed=1)])
        assert not outcomes[0].ok
        assert "budget" in outcomes[0].error


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        candidates = [make_candidate(1.5, label=1), make_candidate(-2.0)]
        store.save("abc", candidates)
        assert store.has("abc")
        assert store.completed_keys() == {"abc"}
        restored = store.load("abc")
        assert restored == candidates

    def test_empty_unit_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("empty", [])
        assert store.load("empty") == []

    def test_missing_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nope") is None

    def test_manifest_guards_run_identity(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.check_manifest({"seed": 0, "q_n": 6})
        store.check_manifest({"seed": 0, "q_n": 6})  # same run: fine
        with pytest.raises(CheckpointError, match="different"):
            store.check_manifest({"seed": 1, "q_n": 6})


class TestFaultTolerantDiscovery:
    def test_crash_20pct_with_retries_bit_identical(self, planted, config):
        """Acceptance: 20% crash rate + retries == zero-fault run, bit for bit."""
        clean = DistributedIPS(config).discover(planted)
        faulty = DistributedIPS(
            config_with(config, max_retries=5),
            fault_plan=FaultPlan(crash_rate=0.2, seed=123),
        ).discover(planted)
        assert shapelet_pools_identical(clean, faulty)
        assert faulty.n_candidates_generated == clean.n_candidates_generated
        assert faulty.extra["recovered_units"] > 0
        assert faulty.extra["failed_units"] == []

    def test_quorum_unmet_raises_quorum_error(self, planted, config):
        """Acceptance: retries disabled + quorum unmet -> QuorumError."""
        with pytest.raises(QuorumError, match="quorum"):
            DistributedIPS(
                config_with(config, max_retries=0, quorum=0.9),
                fault_plan=FaultPlan(crash_rate=0.6, seed=5),
            ).discover(planted)

    def test_degraded_run_is_deterministic(self, planted, config):
        """Same seed + same fault plan => identical pool when quorum met."""
        cfg = config_with(config, max_retries=0, quorum=0.3)
        plan = FaultPlan(crash_rate=0.4, seed=9)
        first = DistributedIPS(cfg, fault_plan=plan).discover(planted)
        second = DistributedIPS(cfg, fault_plan=plan).discover(planted)
        assert first.extra["failed_units"] == second.extra["failed_units"]
        assert first.extra["failed_units"]  # the plan really lost units
        assert shapelet_pools_identical(first, second)

    def test_checkpoint_resume_recomputes_only_missing(
        self, planted, config, tmp_path
    ):
        """Acceptance: a killed run resumed from its checkpoint dir only
        recomputes the units that never completed."""
        run_dir = str(tmp_path / "run")
        crashed = DistributedIPS(
            config_with(
                config, max_retries=0, quorum=0.3, checkpoint_dir=run_dir
            ),
            fault_plan=FaultPlan(crash_rate=0.4, seed=9),
        ).discover(planted)
        lost = crashed.extra["failed_units"]
        assert lost  # the "kill" left work behind
        n_units = crashed.extra["n_work_units"]

        resumed = DistributedIPS(
            config_with(config, checkpoint_dir=run_dir)
        ).discover(planted)
        assert resumed.extra["checkpoint_hits"] == n_units - len(lost)
        assert resumed.extra["n_units_computed"] == len(lost)
        assert resumed.extra["failed_units"] == []

        clean = DistributedIPS(config).discover(planted)
        assert shapelet_pools_identical(clean, resumed)
        assert resumed.n_candidates_generated == clean.n_candidates_generated

    def test_checkpoint_rejects_foreign_run(self, planted, config, tmp_path):
        run_dir = str(tmp_path / "run")
        DistributedIPS(
            config_with(config, checkpoint_dir=run_dir)
        ).discover(planted)
        other = IPSConfig(
            q_n=config.q_n,
            q_s=config.q_s,
            k=config.k,
            length_ratios=config.length_ratios,
            seed=999,
            fault_tolerance=FaultToleranceConfig(
                base_delay=0.0, checkpoint_dir=run_dir
            ),
        )
        with pytest.raises(CheckpointError):
            DistributedIPS(other).discover(planted)

    def test_duplicated_deliveries_are_merged_away(self, planted, config):
        clean = DistributedIPS(config).discover(planted)
        duped = DistributedIPS(
            config_with(config),
            fault_plan=FaultPlan(duplicate_rate=0.5, seed=6),
        ).discover(planted)
        assert duped.extra["duplicates_dropped"] > 0
        assert duped.n_candidates_generated == clean.n_candidates_generated
        assert shapelet_pools_identical(clean, duped)

    def test_nan_and_drop_faults_recovered(self, planted, config):
        clean = DistributedIPS(config).discover(planted)
        mixed = DistributedIPS(
            config_with(config, max_retries=6),
            fault_plan=FaultPlan(nan_rate=0.2, drop_rate=0.2, seed=21),
        ).discover(planted)
        assert mixed.extra["recovered_units"] > 0
        assert shapelet_pools_identical(clean, mixed)

    def test_slow_workers_bit_identical(self, planted, config):
        """Satellite acceptance: slow faults stretch the schedule but the
        discovered pool is bit-identical to the zero-fault run — latency
        jitter must never leak into results."""
        clean = DistributedIPS(config).discover(planted)
        slowed = DistributedIPS(
            config_with(config),
            fault_plan=FaultPlan(slow_rate=0.4, slow_seconds=0.002, seed=23),
        ).discover(planted)
        assert shapelet_pools_identical(clean, slowed)
        assert slowed.n_candidates_generated == clean.n_candidates_generated
        assert slowed.extra["failed_units"] == []

    @pytest.mark.timeout_guard(60)
    def test_injected_hangs_recovered_via_sentinel(self, planted, config):
        clean = DistributedIPS(config).discover(planted)
        hung = DistributedIPS(
            config_with(config, max_retries=6),
            fault_plan=FaultPlan(hang_rate=0.3, seed=13),
        ).discover(planted)
        assert shapelet_pools_identical(clean, hung)

    @pytest.mark.timeout_guard(120)
    def test_live_hangs_caught_by_unit_timeout(self, planted, config):
        """Real sleeps exceed unit_timeout, get flagged, and retries recover."""
        clean = DistributedIPS(config).discover(planted)
        slow = DistributedIPS(
            config_with(config, max_retries=6, unit_timeout=0.02),
            fault_plan=FaultPlan(hang_rate=0.25, hang_seconds=0.05, seed=17),
        ).discover(planted)
        assert slow.extra["recovered_units"] > 0
        assert shapelet_pools_identical(clean, slow)

    def test_broken_pool_degrades_but_run_survives(self, planted, config):
        discoverer = DistributedIPS(
            config_with(config), executor=_BrokenPoolExecutor()
        )
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            result = discoverer.discover(planted)
        assert result.extra["executor_degraded"]
        clean = DistributedIPS(config).discover(planted)
        assert shapelet_pools_identical(clean, result)

    def test_legacy_fail_fast_path_still_aborts(self, planted, config):
        """Without fault_tolerance, a worker exception propagates (seed
        behaviour preserved)."""

        class _Aborting:
            def map(self, fn, units):
                raise RuntimeError("worker exploded")

        with pytest.raises(RuntimeError, match="worker exploded"):
            DistributedIPS(config, executor=_Aborting()).discover(planted)

@pytest.fixture(scope="module")
def clean_result(planted, config):
    """The uninterrupted reference run the property test compares against."""
    return DistributedIPS(config).discover(planted)


class TestCheckpointResumeProperty:
    """PR 6 satellite: for *any* crash pattern, a run killed mid-way and
    resumed from its checkpoint directory converges to a DiscoveryResult
    bit-identical to the uninterrupted run."""

    @settings(max_examples=5, deadline=None)
    @given(crash_seed=st.integers(min_value=0, max_value=2**16))
    def test_resume_after_injected_crash_bit_identical(
        self, planted, config, clean_result, crash_seed
    ):
        plan = FaultPlan(crash_rate=0.45, seed=crash_seed)
        with tempfile.TemporaryDirectory() as run_dir:
            try:
                # The "crash": retries disabled, so ~45% of units die and
                # the run ends partial (or aborts on quorum) — exactly
                # like a worker pool lost mid-campaign.
                DistributedIPS(
                    config_with(
                        config,
                        max_retries=0,
                        quorum=0.2,
                        checkpoint_dir=run_dir,
                    ),
                    fault_plan=plan,
                ).discover(planted)
            except QuorumError:
                pass  # even an aborted run leaves its completed units
            resumed = DistributedIPS(
                config_with(config, checkpoint_dir=run_dir)
            ).discover(planted)
        assert resumed.extra["failed_units"] == []
        assert shapelet_pools_identical(clean_result, resumed)
        assert (
            resumed.n_candidates_generated
            == clean_result.n_candidates_generated
        )
        assert (
            resumed.n_candidates_after_pruning
            == clean_result.n_candidates_after_pruning
        )
