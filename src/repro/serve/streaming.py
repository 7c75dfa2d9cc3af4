"""Streaming sessions over the serving layer: chunked early classification.

:class:`StreamingInferenceService` extends
:class:`~repro.serve.service.InferenceService` with a session table: a
caller opens a stream, submits chunks, and receives a
:class:`~repro.streaming.StreamingDecision` after every chunk — final as
soon as the decision margin clears the threshold, so the verdict often
arrives well before the series does. The batch request path (``predict``
/ ``predict_proba`` / ``decision_function``) keeps working next to the
sessions.

The serving disciplines carry over:

* **admission** — a hard ``max_sessions`` cap
  (:class:`~repro.exceptions.SessionLimitError`) plus TTL eviction of
  idle sessions (:class:`~repro.exceptions.UnknownSessionError` on later
  use);
* **deadlines** — an optional per-session deadline; late chunks fail
  with :class:`~repro.exceptions.DeadlineExceededError` and the session
  is dropped;
* **circuit breaker** — chunk computation shares the service's breaker:
  failures trip it, and an open breaker refuses chunks with
  :class:`~repro.exceptions.CircuitOpenError` without computing;
* **validation** — chunks are checked per the service's validation mode
  (``repair`` zero-fills non-finite values, ``strict``/``off`` refuse).

Decisions are consistent with batch serving: the streaming features
converge bit-identically to the batch direct kernel, so a session
run to end-of-stream emits the label the batch path would.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.budget import Budget
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    InvalidRequestError,
    RequestFailedError,
    ServiceClosedError,
    SessionLimitError,
    UnknownSessionError,
    ValidationError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import HealthReason
from repro.serve.service import (
    QUEUE_SATURATION_DEGRADED,
    InferenceService,
    ServeConfig,
)
from repro.streaming import EarlyClassifier, StreamingDecision


@dataclass(frozen=True)
class StreamConfig:
    """Session-table tunables of one :class:`StreamingInferenceService`.

    Attributes
    ----------
    max_sessions:
        Hard cap on concurrently open sessions (admission control).
    session_ttl_s:
        Idle sessions older than this are evicted at the next session
        operation; ``None`` disables expiry.
    margin_threshold:
        Default early-emission margin threshold of new sessions
        (overridable per :meth:`StreamingInferenceService.open_stream`).
    min_fraction:
        Fraction of the model's training series length that must arrive
        before early emission is allowed.
    """

    max_sessions: int = 64
    session_ttl_s: float | None = 300.0
    margin_threshold: float = 1.0
    min_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValidationError("max_sessions must be >= 1")
        if self.session_ttl_s is not None and self.session_ttl_s <= 0:
            raise ValidationError("session_ttl_s must be > 0 when set")
        if self.margin_threshold < 0:
            raise ValidationError("margin_threshold must be >= 0")
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ValidationError("min_fraction must be in [0, 1]")


@dataclass
class _Session:
    """One open stream: its early classifier plus bookkeeping."""

    session_id: int
    early: EarlyClassifier
    deadline: float | None
    last_seen: float
    lock: threading.Lock = field(default_factory=threading.Lock)
    chunks: int = 0
    #: Whether this session's drift detector has already been counted
    #: (the latch fires once per session in ``streaming.drift_flags``).
    drift_counted: bool = False


class StreamingInferenceService(InferenceService):
    """An :class:`InferenceService` that also serves chunked streams.

    Parameters
    ----------
    classifier:
        A fitted :class:`~repro.core.pipeline.IPSClassifier`.
    config:
        Batch-path :class:`~repro.serve.service.ServeConfig`.
    stream_config:
        :class:`StreamConfig` for the session table.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` shared by
        the batch path, every session's early classifier (margins, emit
        times, per-append latency), and the session table itself
        (``streaming.*`` counters/gauges/windows).
    slo:
        Optional :class:`~repro.obs.telemetry.SLOTracker` for the batch
        request path (chunk appends do not feed it).
    """

    def __init__(
        self,
        classifier,
        config: ServeConfig | None = None,
        stream_config: StreamConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        slo=None,
        fault_plan=None,
        clock=time.monotonic,
    ) -> None:
        super().__init__(
            classifier,
            config,
            fault_plan=fault_plan,
            clock=clock,
            metrics=metrics,
            slo=slo,
        )
        self.stream_config = stream_config or StreamConfig()
        self._sessions: dict[int, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._next_session_id = 0
        self._stream_stats = {
            "sessions_opened": 0,
            "sessions_expired": 0,
            "sessions_closed": 0,
            "chunks": 0,
            "early_emits": 0,
        }

    # -- session table -----------------------------------------------------

    def _stream_note(self, key: str, n: int = 1) -> None:
        """Bump a session-table stat (``_sessions_lock`` must be held).

        Mirrored as ``streaming.*`` counters/gauges in the shared
        registry — except ``early_emits``, which the sessions' own
        :class:`EarlyClassifier` instances already count there.
        """
        self._stream_stats[key] += n
        if self.metrics is None:
            return
        if key != "early_emits":
            self.metrics.counter(f"streaming.{key}", n)
        self.metrics.gauge("streaming.open_sessions", len(self._sessions))
        opened = self._stream_stats["sessions_opened"]
        self.metrics.gauge(
            "streaming.early_emit_fraction",
            self._stream_stats["early_emits"] / opened if opened else 0.0,
        )

    def _expire_sessions(self, now: float) -> None:
        ttl = self.stream_config.session_ttl_s
        if ttl is None:
            return
        expired = [
            sid
            for sid, session in self._sessions.items()
            if now - session.last_seen >= ttl
        ]
        for sid in expired:
            del self._sessions[sid]
            self._stream_note("sessions_expired")

    def _get_session(self, session_id: int) -> _Session:
        with self._sessions_lock:
            self._expire_sessions(self._clock())
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(
                f"unknown streaming session {session_id} (never opened, "
                "closed, or expired)"
            )
        return session

    def open_stream(
        self,
        *,
        margin_threshold: float | None = None,
        min_samples: int | None = None,
        deadline_s: float | None = None,
        budget: Budget | None = None,
    ) -> int:
        """Open a session; returns its id for :meth:`submit_chunk`.

        ``min_samples`` defaults to ``min_fraction`` of the model's
        training series length; ``deadline_s`` bounds the session's total
        wall-clock lifetime; ``budget`` forces an anytime decision on
        exhaustion.
        """
        if not self._running:
            raise ServiceClosedError("service is not running; call start()")
        if margin_threshold is None:
            margin_threshold = self.stream_config.margin_threshold
        if min_samples is None:
            min_samples = math.ceil(
                self.stream_config.min_fraction * self.series_length
            )
        early = EarlyClassifier.from_classifier(
            self.classifier,
            margin_threshold=margin_threshold,
            min_samples=min_samples,
            budget=budget,
            metrics=self.metrics,
        )
        now = self._clock()
        with self._sessions_lock:
            self._expire_sessions(now)
            if len(self._sessions) >= self.stream_config.max_sessions:
                raise SessionLimitError(
                    f"session table full ({self.stream_config.max_sessions} "
                    "open sessions)"
                )
            session_id = self._next_session_id
            self._next_session_id += 1
            self._sessions[session_id] = _Session(
                session_id=session_id,
                early=early,
                deadline=None if deadline_s is None else now + deadline_s,
                last_seen=now,
            )
            self._stream_note("sessions_opened")
        return session_id

    def _validate_chunk(self, chunk) -> np.ndarray:
        try:
            arr = np.asarray(chunk, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(f"chunk is not numeric: {exc}") from exc
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise InvalidRequestError(
                f"chunk must be scalar or 1-D, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            if self.config.validation == "repair":
                arr = np.where(np.isfinite(arr), arr, 0.0)
            else:
                raise InvalidRequestError(
                    "chunk contains non-finite values "
                    f"(validation={self.config.validation!r})"
                )
        return arr

    def submit_chunk(self, session_id: int, chunk) -> StreamingDecision:
        """Feed one chunk to a session; returns the current decision.

        Runs under the session's lock (chunks of one session are
        serialized; distinct sessions proceed concurrently) and the
        service's circuit breaker.
        """
        if not self._running:
            raise ServiceClosedError("service is not running; call start()")
        session = self._get_session(session_id)
        arr = self._validate_chunk(chunk)
        now = self._clock()
        if session.deadline is not None and now >= session.deadline:
            self._drop_session(session_id)
            raise DeadlineExceededError(
                f"session {session_id} exceeded its deadline"
            )
        if not self.breaker.allow():
            raise CircuitOpenError(
                "circuit breaker open; streaming chunk refused"
            )
        with session.lock:
            was_final = session.early.final
            appended_at = self._clock()
            try:
                decision = session.early.append(arr)
            except ValidationError:
                raise
            except Exception as exc:  # noqa: BLE001 - breaker accounting
                self.breaker.record_failure()
                raise RequestFailedError(
                    f"streaming chunk failed: {type(exc).__name__}: {exc}"
                ) from exc
            self.breaker.record_success()
            session.chunks += 1
            session.last_seen = self._clock()
            append_seconds = session.last_seen - appended_at
            drift_flagged = (
                not session.drift_counted
                and session.early.drift_detector is not None
                and session.early.drift_detector.drifted
            )
            if drift_flagged:
                session.drift_counted = True
        with self._sessions_lock:
            self._stream_note("chunks")
            if decision.early and not was_final:
                self._stream_note("early_emits")
            if self.metrics is not None:
                self.metrics.observe_window(
                    "streaming.append_latency_seconds", append_seconds
                )
                if drift_flagged:
                    self.metrics.counter("streaming.drift_flags")
        return decision

    def close_stream(self, session_id: int) -> StreamingDecision:
        """Close a session, returning its final decision.

        If no early/budget decision was latched, an end-of-stream
        decision is computed (requires at least one complete window).
        """
        session = self._get_session(session_id)
        with session.lock:
            decision = session.early.finalize()
        self._drop_session(session_id)
        with self._sessions_lock:
            self._stream_note("sessions_closed")
        return decision

    def _drop_session(self, session_id: int) -> None:
        with self._sessions_lock:
            self._sessions.pop(session_id, None)

    def stream_series(
        self, series, chunk_size: int = 32, **open_kwargs
    ) -> StreamingDecision:
        """Convenience: open, replay one series in chunks, close.

        Stops feeding as soon as the decision latches (the early-exit the
        subsystem exists for) and returns the final decision.
        """
        from repro.datasets.replay import iter_chunks

        session_id = self.open_stream(**open_kwargs)
        try:
            for chunk in iter_chunks(series, chunk_size):
                decision = self.submit_chunk(session_id, chunk)
                if decision.final:
                    self._drop_session(session_id)
                    return decision
            return self.close_stream(session_id)
        except BaseException:
            self._drop_session(session_id)
            raise

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict:
        """Batch-path counters plus the session-table counters."""
        stats = super().stats()
        with self._sessions_lock:
            stats["streaming"] = dict(self._stream_stats)
            stats["streaming"]["open_sessions"] = len(self._sessions)
        return stats

    def health_reasons(self) -> list:
        """Batch-path reasons plus session-table capacity."""
        reasons = super().health_reasons()
        with self._sessions_lock:
            open_sessions = len(self._sessions)
        cap = self.stream_config.max_sessions
        ratio = open_sessions / cap
        if ratio >= 1.0:
            reasons.append(
                HealthReason(
                    code="session_capacity",
                    severity="unhealthy",
                    detail=(
                        f"session table full ({open_sessions}/{cap}); "
                        "open_stream is refusing new sessions"
                    ),
                )
            )
        elif ratio >= QUEUE_SATURATION_DEGRADED:
            reasons.append(
                HealthReason(
                    code="session_capacity",
                    severity="degraded",
                    detail=f"session table {ratio:.0%} full ({open_sessions}/{cap})",
                )
            )
        return reasons


__all__ = ["StreamConfig", "StreamingInferenceService"]
