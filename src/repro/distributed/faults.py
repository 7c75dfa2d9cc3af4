"""Deterministic fault injection for distributed candidate generation.

Real worker fleets crash, hang, and ship corrupt payloads; this module
wraps a worker function so those failure modes can be replayed *exactly*
in tests and benchmarks. Every fault decision is keyed by
``(plan.seed, unit.seed, attempt)``, so:

* the same plan against the same work units injects the same faults;
* a unit that crashes on attempt 0 draws fresh (still deterministic)
  fate on attempt 1, which is what lets retries recover it;
* different units fail independently, like real machines.

Injected failure modes (checked in this order, first hit wins):

``crash``
    The worker raises :class:`repro.exceptions.WorkerCrashError`.
``hang``
    The worker never returns. Simulated without burning wall-clock time
    by raising the :class:`repro.exceptions.UnitTimeoutError` sentinel —
    exactly what the retrying executor's deadline check would produce.
    With ``hang_seconds > 0`` the worker instead really sleeps that long
    before answering, to exercise the live ``unit_timeout`` path.
``nan``
    The unit computes normally but every candidate's values come back
    NaN-poisoned (a bit-flipped / overflowed payload).
``drop``
    The result is lost in transit: the worker returns a
    :class:`DroppedResult` marker instead of its candidates.
``duplicate``
    The payload is delivered twice (at-least-once delivery): the
    candidate list is returned with every element repeated.
``slow``
    The worker answers correctly but late: it sleeps a deterministic
    latency-jitter delay (``slow_seconds`` scaled by a draw keyed by the
    same ``(plan seed, unit seed, attempt)`` triple) before computing.
    Payloads are untouched — this fault exists to drive deadline and
    tail-latency handling in the distributed and serving chaos tests.

The wrapper (:class:`FaultInjector`) is picklable as long as the wrapped
worker is, so it runs unchanged under the process-pool executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    UnitTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.types import Candidate


class DroppedResult:
    """Marker payload standing in for a result lost in transit.

    Instances compare equal by type (pickling across a process boundary
    creates a new object), so detect one with ``isinstance``.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<result dropped in transit>"


#: Fault kinds in decision order (first triggered wins). ``slow`` is
#: last so adding it left every pre-existing campaign's decisions intact
#: (the extra uniform draw extends the vector without perturbing the
#: prefix).
FAULT_KINDS: tuple[str, ...] = (
    "crash", "hang", "nan", "drop", "duplicate", "slow",
)


@dataclass(frozen=True)
class FaultPlan:
    """Rates and seed of a deterministic fault-injection campaign.

    Attributes
    ----------
    crash_rate, hang_rate, nan_rate, drop_rate, duplicate_rate, slow_rate:
        Per-attempt probability of each failure mode, each in [0, 1].
    hang_seconds:
        When > 0, an injected hang really sleeps this long (then answers
        normally) instead of raising the timeout sentinel — pair it with
        ``FaultToleranceConfig.unit_timeout`` to drive the live deadline
        check.
    slow_seconds:
        Base latency of an injected ``slow`` fault; the actual delay is
        ``slow_seconds * (0.5 + u)`` with ``u`` a deterministic uniform
        draw keyed by ``(plan seed, unit seed, attempt)``, so the jitter
        replays exactly.
    seed:
        Campaign seed; combined with the unit seed and attempt index so
        the whole campaign is replayable.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    nan_rate: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    slow_rate: float = 0.0
    hang_seconds: float = 0.0
    slow_seconds: float = 0.005
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "nan_rate", "drop_rate",
                     "duplicate_rate", "slow_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_seconds < 0:
            raise ValidationError("hang_seconds must be >= 0")
        if self.slow_seconds < 0:
            raise ValidationError("slow_seconds must be >= 0")

    @property
    def total_rate(self) -> float:
        """Upper bound on the per-attempt probability of any fault."""
        return min(
            1.0,
            self.crash_rate + self.hang_rate + self.nan_rate
            + self.drop_rate + self.duplicate_rate + self.slow_rate,
        )

    def decide(self, unit_seed: int, attempt: int) -> str | None:
        """Which fault (if any) hits this ``(unit, attempt)`` pair.

        One independent uniform draw per fault kind, in ``FAULT_KINDS``
        order, from an RNG keyed by ``(plan seed, unit seed, attempt)``.
        Deterministic: the same triple always yields the same answer.
        """
        rng = np.random.default_rng(
            [int(self.seed), int(unit_seed) & 0xFFFFFFFFFFFFFFFF, int(attempt)]
        )
        draws = rng.random(len(FAULT_KINDS))
        rates = (self.crash_rate, self.hang_rate, self.nan_rate,
                 self.drop_rate, self.duplicate_rate, self.slow_rate)
        for kind, draw, rate in zip(FAULT_KINDS, draws, rates):
            if draw < rate:
                return kind
        return None

    def slow_delay(self, unit_seed: int, attempt: int) -> float:
        """Seconds an injected ``slow`` fault delays this ``(unit, attempt)``.

        Deterministic latency jitter in
        ``[0.5 * slow_seconds, 1.5 * slow_seconds)``; the RNG key extends
        the :meth:`decide` key with a constant discriminator so the delay
        draw never aliases the fault-selection draws.
        """
        rng = np.random.default_rng(
            [int(self.seed), int(unit_seed) & 0xFFFFFFFFFFFFFFFF,
             int(attempt), 0x510]
        )
        return float(self.slow_seconds * (0.5 + rng.random()))


def _poison_candidates(result: object) -> object:
    """NaN-poison a worker payload (list of candidates) in a fresh copy."""
    if not isinstance(result, list):
        return result
    poisoned = []
    for item in result:
        if isinstance(item, Candidate):
            poisoned.append(
                Candidate(
                    values=np.full_like(item.values, np.nan),
                    label=item.label,
                    kind=item.kind,
                    source_instance=item.source_instance,
                    start=item.start,
                    sample_id=item.sample_id,
                )
            )
        else:  # pragma: no cover - non-candidate payloads pass through
            poisoned.append(item)
    return poisoned


def _duplicate_result(result: object) -> object:
    """Deliver a list payload twice (at-least-once delivery)."""
    if isinstance(result, list):
        return result + list(result)
    return result


class _BoundInjector:
    """The fault wrapper specialised to one attempt index (picklable)."""

    def __init__(self, fn, plan: FaultPlan, attempt: int) -> None:
        self._fn = fn
        self._plan = plan
        self._attempt = attempt

    def __call__(self, unit, *args):
        plan = self._plan
        fault = plan.decide(unit.seed, self._attempt)
        if fault == "slow":
            time.sleep(plan.slow_delay(unit.seed, self._attempt))
        if fault == "crash":
            raise WorkerCrashError(
                f"injected crash (unit seed={unit.seed}, "
                f"attempt={self._attempt})"
            )
        if fault == "hang":
            if plan.hang_seconds > 0:
                time.sleep(plan.hang_seconds)
            else:
                raise UnitTimeoutError(
                    f"injected hang (unit seed={unit.seed}, "
                    f"attempt={self._attempt})"
                )
        result = self._fn(unit, *args)
        if fault == "nan":
            return _poison_candidates(result)
        if fault == "drop":
            return DroppedResult()
        if fault == "duplicate":
            return _duplicate_result(result)
        return result


class FaultInjector:
    """Wrap a worker function with a deterministic fault campaign.

    Usable anywhere the bare worker is (including inside process pools);
    extra positional arguments pass through to it. Called directly it behaves as attempt 0; the retrying executor asks
    for per-attempt variants via :meth:`for_attempt`, which is what makes
    injected faults transient and therefore recoverable.
    """

    def __init__(self, fn, plan: FaultPlan) -> None:
        self.fn = fn
        self.plan = plan

    def for_attempt(self, attempt: int) -> _BoundInjector:
        """The worker as seen on retry round ``attempt`` (0-based)."""
        return _BoundInjector(self.fn, self.plan, attempt)

    def __call__(self, unit, *args):
        return self.for_attempt(0)(unit, *args)
