"""Coordinator for distributed IPS candidate generation.

``DistributedIPS`` is :class:`repro.core.pipeline.IPS` with one stage
swapped: it fans the (class, sample) candidate-generation units out to an
executor, then prunes and selects through the serial pipeline's code.
Determinism: unit seeds come from ``SeedSequence(master).spawn``, indexed
by unit order, so the serial, thread, and process executors return
identical candidate pools.

With ``IPSConfig.fault_tolerance`` set, discovery survives worker
failure: units are retried with backoff through
:class:`repro.distributed.executor.RetryingExecutor`, payloads are
validated (NaN-poisoned or dropped results count as failures), completed
units are checkpointed for resume, and the merge proceeds under a
per-class success quorum — recording exactly which units were lost —
or raises :class:`repro.exceptions.QuorumError` when too few survive.
Because every unit's output depends only on its own seed, a run that
recovers all units (by retry or from a checkpoint) yields a candidate
pool bit-identical to the zero-fault run.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FaultToleranceConfig, IPSConfig
from repro.core.pipeline import IPS
from repro.distributed.checkpoint import CheckpointStore, unit_key
from repro.distributed.executor import (
    Executor,
    RetryingExecutor,
    SerialExecutor,
    UnitOutcome,
    WorkUnit,
)
from repro.distributed.faults import DroppedResult, FaultInjector, FaultPlan
from repro.distributed.interrupt import GracefulInterrupt
from repro.exceptions import EmptyPoolError, QuorumError
from repro.instanceprofile.candidates import BagSample, CandidatePool, bag_candidates
from repro.instanceprofile.sampling import resolve_lengths
from repro.kernels import PerfCounters
from repro.ts.series import Dataset
from repro.types import Candidate


def validate_unit_result(value: object) -> str | None:
    """Payload check used by the fault-tolerant path.

    Returns a failure description (making the attempt retryable) for
    dropped results, wrong payload types, and non-finite candidate values;
    ``None`` for a healthy payload.
    """
    if isinstance(value, DroppedResult):
        return "result dropped in transit"
    if not isinstance(value, list):
        return (
            f"worker returned {type(value).__name__}, "
            "expected a list of candidates"
        )
    for candidate in value:
        if not isinstance(candidate, Candidate):
            return "worker returned a non-candidate payload"
        if not np.all(np.isfinite(candidate.values)):
            return "worker returned non-finite candidate values"
    return None


def generate_unit_candidates(
    unit: WorkUnit, counters: PerfCounters | None = None
) -> list[Candidate]:
    """Worker function: Algorithm-1 inner loop for one (class, sample) unit.

    Module-level (picklable) so it can run in a process pool. Returns the
    motif and discord candidates of the unit's concatenated sample at
    every requested length; those profiles share one batched STOMP row
    loop, through the same helper the serial generator runs per round.
    Kernel work is tallied into ``counters`` when given.
    """
    sample = BagSample(
        unit.label, unit.sample_id, np.asarray(unit.rows), unit.X_rows
    )
    [candidates] = bag_candidates(
        [sample],
        list(unit.lengths),
        unit.motifs_per_profile,
        unit.discords_per_profile,
        unit.normalized,
        counters=counters,
    )
    return candidates


class _CountedWorker:
    """Run a unit worker with per-unit :class:`PerfCounters`.

    Returns ``(candidates, tallies)``: the kernel tallies travel back
    beside the candidate list, never inside it, so fault injection, the
    payload check, the checkpoint store and the merge all see the plain
    list. Picklable whenever the wrapped worker is.
    """

    def __init__(self, fn) -> None:
        self.fn = fn

    def for_attempt(self, attempt: int) -> "_CountedWorker":
        """The per-attempt variant of a fault-injecting worker."""
        if hasattr(self.fn, "for_attempt"):
            return _CountedWorker(self.fn.for_attempt(attempt))
        return self

    def __call__(self, unit: WorkUnit) -> tuple[object, PerfCounters]:
        tallies = PerfCounters()
        return self.fn(unit, tallies), tallies


def _accept(result: tuple[object, PerfCounters], counters) -> object:
    """Fold an accepted unit's tallies into the run counters; return
    its candidate list."""
    candidates, tallies = result
    counters.merge(tallies)
    return candidates


class DistributedIPS(IPS):
    """IPS with distributed candidate generation.

    Only Algorithm 1 is swapped (:meth:`_generate`); pruning, selection,
    budgets, observability and the result's ``extra`` keys are those of
    :class:`repro.core.pipeline.IPS`, which honours every pruning,
    selection and LSH field of the config.

    Parameters
    ----------
    config:
        The usual pipeline configuration. Set ``config.fault_tolerance``
        to enable the resilient path.
    executor:
        Any :class:`repro.distributed.executor.Executor`; defaults to the
        in-process serial executor.
    fault_plan:
        Optional :class:`repro.distributed.faults.FaultPlan` wrapping the
        worker with deterministic fault injection — the test/benchmark
        substrate for the fault-tolerance layer. Injecting faults forces
        the fault-tolerant path even when ``config.fault_tolerance`` is
        unset (a default policy is used).
    """

    def __init__(
        self,
        config: IPSConfig | None = None,
        executor: Executor | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(config)
        self.executor = executor if executor is not None else SerialExecutor()
        self.fault_plan = fault_plan

    def build_work_units(self, dataset: Dataset) -> list[WorkUnit]:
        """Partition Algorithm 1 into per-(class, sample) units."""
        config = self.config
        lengths = tuple(resolve_lengths(dataset.series_length, config.length_ratios))
        master = np.random.SeedSequence(
            config.seed if config.seed is not None else 0
        )
        n_units = dataset.n_classes * config.q_n
        child_seeds = master.spawn(n_units)
        units: list[WorkUnit] = []
        unit_index = 0
        for label in range(dataset.n_classes):
            class_rows = dataset.class_indices(label)
            for sample_id in range(config.q_n):
                rng = np.random.default_rng(child_seeds[unit_index])
                size = min(config.q_s, class_rows.size)
                if class_rows.size >= 2:
                    size = max(size, 2)
                rows = rng.choice(class_rows, size=size, replace=False)
                units.append(
                    WorkUnit(
                        label=label,
                        sample_id=sample_id,
                        rows=tuple(int(r) for r in rows),
                        X_rows=dataset.X[rows].copy(),
                        lengths=lengths,
                        seed=int(child_seeds[unit_index].generate_state(1)[0]),
                        normalized=config.normalized_profiles,
                        motifs_per_profile=config.motifs_per_profile,
                        discords_per_profile=config.discords_per_profile,
                    )
                )
                unit_index += 1
        return units

    def _fingerprint(self, dataset: Dataset) -> dict:
        """JSON-serializable identity of a run, guarding checkpoint reuse."""
        config = self.config
        return {
            "seed": config.seed,
            "q_n": config.q_n,
            "q_s": config.q_s,
            "length_ratios": list(config.length_ratios),
            "normalized_profiles": config.normalized_profiles,
            "motifs_per_profile": config.motifs_per_profile,
            "discords_per_profile": config.discords_per_profile,
            "n_series": dataset.n_series,
            "n_classes": dataset.n_classes,
            "series_length": dataset.series_length,
        }

    def _run_fault_tolerant(
        self,
        dataset: Dataset,
        units: list[WorkUnit],
        worker,
        fault_tolerance: FaultToleranceConfig,
        tracker,
        counters,
    ) -> tuple[list[WorkUnit], list[UnitOutcome], dict]:
        """Execute units under retries + optional checkpoint resume.

        With a budget ``tracker``, fresh units are executed one
        *round* (same ``sample_id`` across classes) at a time and the
        budget is checked between rounds; units beyond the truncation
        round are never attempted (and are excluded from the quorum
        denominator). The first round always runs. Returns the attempted
        units, their outcomes (aligned), and run statistics.
        """
        config = self.config
        outcomes: list[UnitOutcome | None] = [None] * len(units)
        remaining = list(range(len(units)))
        store: CheckpointStore | None = None
        checkpoint_hits = 0
        if fault_tolerance.checkpoint_dir is not None:
            store = CheckpointStore(fault_tolerance.checkpoint_dir)
            store.check_manifest(self._fingerprint(dataset))
            fresh: list[int] = []
            for index in remaining:
                cached = store.load(unit_key(units[index]))
                if cached is not None:
                    outcomes[index] = UnitOutcome(
                        index=index, value=cached, from_checkpoint=True
                    )
                    checkpoint_hits += 1
                    if tracker is not None:
                        tracker.charge(
                            len(cached), sum(c.length for c in cached)
                        )
                else:
                    fresh.append(index)
            remaining = fresh
        jitter_seed = fault_tolerance.seed
        if jitter_seed is None:
            jitter_seed = config.seed if config.seed is not None else 0
        retrying = RetryingExecutor(
            inner=self.executor,
            max_retries=fault_tolerance.max_retries,
            base_delay=fault_tolerance.base_delay,
            max_delay=fault_tolerance.max_delay,
            jitter=fault_tolerance.jitter,
            unit_timeout=fault_tolerance.unit_timeout,
            validate=lambda result: validate_unit_result(result[0]),
            seed=jitter_seed,
        )
        # One batch per bagging round (same sample_id across classes):
        # the budget truncates at round boundaries, and a first
        # SIGINT/SIGTERM stops cleanly *after* the in-flight round — by
        # then every completed unit is already checkpointed, so nothing
        # is lost. A second signal force-exits via KeyboardInterrupt.
        by_round: dict[int, list[int]] = {}
        for index in remaining:
            by_round.setdefault(units[index].sample_id, []).append(index)
        batches = [by_round[s] for s in sorted(by_round)]
        n_computed = 0
        rounds_run = 0
        interrupted = False
        with GracefulInterrupt() as interrupt:
            for batch_no, batch in enumerate(batches):
                if batch_no > 0 and (
                    interrupt.triggered
                    or (tracker is not None and tracker.exhausted)
                ):
                    interrupted = interrupt.triggered
                    break
                computed = retrying.map_with_outcomes(
                    worker, [units[i] for i in batch]
                )
                rounds_run += 1
                for index, outcome in zip(batch, computed):
                    outcome.index = index
                    if outcome.ok:
                        outcome.value = _accept(outcome.value, counters)
                    outcomes[index] = outcome
                    n_computed += 1
                    if store is not None and outcome.ok:
                        store.save(unit_key(units[index]), outcome.value)
                    if tracker is not None and outcome.ok:
                        tracker.charge(
                            len(outcome.value),
                            sum(c.length for c in outcome.value),
                        )
            interrupted = interrupted or interrupt.triggered
        if tracker is not None:
            tracker.record_phase(
                "generation",
                rounds_completed=rounds_run,
                rounds_total=len(batches),
                truncated=rounds_run < len(batches),
            )
        stats = {
            "checkpoint_hits": checkpoint_hits,
            "n_units_computed": n_computed,
            "executor_degraded": retrying.degraded_,
            "interrupted": interrupted,
        }
        attempted = [
            (units[i], outcomes[i])
            for i in range(len(units))
            if outcomes[i] is not None
        ]
        return (
            [u for u, _ in attempted],
            [o for _, o in attempted],
            stats,
        )

    def _merge_outcomes(
        self,
        units: list[WorkUnit],
        outcomes: list[UnitOutcome],
        quorum: float,
    ) -> tuple[CandidatePool, dict]:
        """Degraded merge: combine surviving units under a per-class quorum.

        Candidates are merged in unit order (deterministic); duplicated
        deliveries within a unit are dropped. If any class's success
        fraction falls below ``quorum``, raises :class:`QuorumError`
        naming the offending classes; otherwise the lost units are
        recorded so callers can see exactly what degraded.
        """
        pool = CandidatePool()
        failed_units: list[tuple[int, int]] = []
        errors: list[str] = []
        duplicates_dropped = 0
        succeeded: dict[int, int] = {}
        totals: dict[int, int] = {}
        for unit, outcome in zip(units, outcomes):
            totals[unit.label] = totals.get(unit.label, 0) + 1
            if not outcome.ok:
                failed_units.append((unit.label, unit.sample_id))
                errors.append(
                    f"unit (class={unit.label}, sample={unit.sample_id}): "
                    f"{outcome.error}"
                )
                continue
            succeeded[unit.label] = succeeded.get(unit.label, 0) + 1
            seen_in_unit: set[Candidate] = set()
            for candidate in outcome.value:
                if candidate in seen_in_unit:
                    duplicates_dropped += 1
                    continue
                seen_in_unit.add(candidate)
                pool.add(candidate)
        below = {
            label: succeeded.get(label, 0) / total
            for label, total in totals.items()
            if succeeded.get(label, 0) / total + 1e-12 < quorum
        }
        if below:
            detail = ", ".join(
                f"class {label}: {fraction:.0%} of units succeeded"
                for label, fraction in sorted(below.items())
            )
            raise QuorumError(
                f"quorum {quorum:.0%} unmet after retries ({detail}); "
                f"{len(failed_units)} units lost. First failures: "
                + "; ".join(errors[:3])
            )
        recovered = sum(
            1 for o in outcomes if o.ok and not o.from_checkpoint and o.attempts > 1
        )
        stats = {
            "failed_units": failed_units,
            "recovered_units": recovered,
            "duplicates_dropped": duplicates_dropped,
            "units_per_class": {
                label: {"ok": succeeded.get(label, 0), "total": total}
                for label, total in sorted(totals.items())
            },
        }
        return pool, stats

    def _generate(
        self, dataset: Dataset, lengths, tracker, tracer, gen_span
    ) -> tuple[CandidatePool, dict]:
        """Distributed Algorithm 1: run the work units and merge them.

        Fail-fast by default (any worker exception propagates, as the
        original implementation did); with ``config.fault_tolerance`` set
        or a ``fault_plan`` injected, the resilient path described in the
        module docstring runs instead. In the trace modes every work unit
        leaves a ``"unit"`` event recording its attempts, checkpoint
        provenance, and final fate. Pruning and selection then run in
        :meth:`IPS.discover` exactly as for the serial generator.
        """
        config = self.config
        counters = tracer.counters
        units = self.build_work_units(dataset)
        gen_span.set(n_units=len(units))
        fault_tolerance = config.fault_tolerance
        worker = generate_unit_candidates
        if self.fault_plan is not None:
            worker = FaultInjector(worker, self.fault_plan)
            if fault_tolerance is None:
                fault_tolerance = FaultToleranceConfig()
        worker = _CountedWorker(worker)

        run_stats: dict = {}
        attempted_units = units
        if fault_tolerance is None and tracker is None:
            per_unit = self.executor.map(worker, units)
            outcomes = [
                UnitOutcome(index=i, value=_accept(result, counters))
                for i, result in enumerate(per_unit)
            ]
            quorum = 1.0
        elif fault_tolerance is None:
            # Fail-fast semantics, but executed one round (same sample_id
            # across classes) at a time so the budget can truncate at a
            # deterministic round boundary. The first round always runs.
            by_round: dict[int, list[int]] = {}
            for i, unit in enumerate(units):
                by_round.setdefault(unit.sample_id, []).append(i)
            attempted: list[tuple[WorkUnit, UnitOutcome]] = []
            rounds_run = 0
            rounds = [by_round[s] for s in sorted(by_round)]
            for round_no, batch in enumerate(rounds):
                if round_no > 0 and tracker.exhausted:
                    break
                values = self.executor.map(worker, [units[i] for i in batch])
                rounds_run += 1
                for i, result in zip(batch, values):
                    value = _accept(result, counters)
                    attempted.append((units[i], UnitOutcome(index=i, value=value)))
                    tracker.charge(len(value), sum(c.length for c in value))
            attempted.sort(key=lambda pair: pair[1].index)
            attempted_units = [u for u, _ in attempted]
            outcomes = [o for _, o in attempted]
            tracker.record_phase(
                "generation",
                rounds_completed=rounds_run,
                rounds_total=len(rounds),
                truncated=rounds_run < len(rounds),
            )
            quorum = 1.0
        else:
            attempted_units, outcomes, run_stats = self._run_fault_tolerant(
                dataset, units, worker, fault_tolerance, tracker, counters
            )
            quorum = fault_tolerance.quorum
        if tracer.active:
            for unit, outcome in zip(attempted_units, outcomes):
                tracer.event(
                    "unit",
                    label=unit.label,
                    sample_id=unit.sample_id,
                    ok=outcome.ok,
                    attempts=outcome.attempts,
                    from_checkpoint=outcome.from_checkpoint,
                    elapsed=outcome.elapsed,
                    error=outcome.error,
                )
                if not outcome.ok:
                    tracer.count("units.failed")
                elif outcome.from_checkpoint:
                    tracer.count("units.from_checkpoint")
                elif outcome.attempts > 1:
                    tracer.count("units.recovered")
        pool, merge_stats = self._merge_outcomes(attempted_units, outcomes, quorum)
        if len(pool) == 0:
            raise EmptyPoolError("distributed generation produced no candidates")
        gen_span.set(n_units_attempted=len(attempted_units))
        return pool, {"n_work_units": len(units), **merge_stats, **run_stats}
