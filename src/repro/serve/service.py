"""The online inference service: admission, microbatching, degradation.

Request lifecycle::

    submit ── validate (strict/repair/off) ── deadline stamped
        └─> AdmissionQueue (bounded; backpressure / load shedding)
              └─> worker thread: collect microbatch
                    ├─ drop requests already past deadline (typed error)
                    ├─ circuit breaker closed? ── batched predict through
                    │    the repro.kernels facade (one cache per microbatch)
                    │    └─ payload validated; corrupt/failed requests
                    │       fall through ↓, healthy ones complete
                    └─ breaker open, batch crashed, or payload corrupt:
                         serial fallback — per-request retries with
                         attempt-indexed fault decisions (the
                         RetryingExecutor recipe), deadline checked
                         before every attempt

The degradation ladder is therefore: *batched* → *serial with retries* →
*typed failure*. Every terminal state is a typed :class:`ServeError`
subclass; no request ever blocks forever (deadlines and shutdown both
complete futures), and no accepted request is silently dropped.

Determinism: predictions on the batched and serial paths go through the
same kernels (`batch_min_distance`), so every *successful* response is
bit-identical to offline ``IPSClassifier.predict`` — the chaos suite's
core invariant.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    InvalidRequestError,
    NotFittedError,
    RequestFailedError,
    RequestSheddedError,
    ServiceClosedError,
    ValidationError,
)
from repro.obs.telemetry import HealthReason, HealthReport
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.faults import CORRUPT_LABEL, RequestFaultInjector
from repro.serve.queueing import SHED_POLICIES, AdmissionQueue
from repro.validation import pad_or_truncate, validate_series
from repro.validation.contracts import VALIDATION_MODES

#: Request output modes: a label, a probability row, or a decision row.
REQUEST_MODES: tuple[str, ...] = ("label", "proba", "scores")

#: Queue fill ratio at which ``health()`` reports ``queue_saturation``
#: as degraded; at 1.0 (requests being rejected/shed) it is unhealthy.
QUEUE_SATURATION_DEGRADED = 0.8

#: Numeric encoding of breaker states for the ``serve.breaker_state``
#: gauge (Prometheus gauges are numbers): closed=0, half-open=1, open=2.
BREAKER_STATE_GAUGE = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`InferenceService` instance.

    Attributes
    ----------
    queue_depth:
        Admission-queue bound — the backpressure knob.
    shed_policy:
        ``"reject-newest"`` or ``"shed-oldest"`` (see
        :mod:`repro.serve.queueing`).
    max_batch:
        Microbatch width: how many waiting requests one kernel pass
        serves.
    batch_wait_s:
        How long an idle worker blocks waiting for work before looping
        (also bounds shutdown latency).
    default_deadline_s:
        Deadline applied when a request does not carry one; ``None``
        means no deadline.
    validation:
        Per-request data-contract mode: ``"strict"``, ``"repair"``, or
        ``"off"``.
    n_workers:
        Worker threads draining the queue.
    breaker_threshold, breaker_reset_s:
        Circuit-breaker trip streak and open-state cool-down.
    serial_retries:
        Extra attempts each request gets on the serial fallback path.
    """

    queue_depth: int = 64
    shed_policy: str = "reject-newest"
    max_batch: int = 16
    batch_wait_s: float = 0.01
    default_deadline_s: float | None = None
    validation: str = "repair"
    n_workers: int = 1
    breaker_threshold: int = 3
    breaker_reset_s: float = 0.05
    serial_retries: int = 2

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValidationError("queue_depth must be >= 1")
        if self.shed_policy not in SHED_POLICIES:
            raise ValidationError(
                f"unknown shed_policy {self.shed_policy!r}"
            )
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if self.batch_wait_s <= 0:
            raise ValidationError("batch_wait_s must be > 0")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValidationError("default_deadline_s must be > 0 when set")
        if self.validation not in VALIDATION_MODES:
            raise ValidationError(
                f"unknown validation mode {self.validation!r}"
            )
        if self.n_workers < 1:
            raise ValidationError("n_workers must be >= 1")
        if self.serial_retries < 0:
            raise ValidationError("serial_retries must be >= 0")


class ServeFuture:
    """Completion handle of one submitted request.

    Completed exactly once (first writer wins); :meth:`result` either
    returns the predicted label or raises the request's typed error.
    """

    __slots__ = ("_event", "_value", "_error", "request_id", "latency")

    def __init__(self, request_id: int) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None
        self.request_id = request_id
        #: Seconds from submit to completion (set by the service).
        self.latency: float | None = None

    def done(self) -> bool:
        """Whether the request has completed (either way)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block for the outcome: the predicted label, or a typed raise."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still pending after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def error(self) -> BaseException | None:
        """The stored error after completion, if any (non-blocking)."""
        return self._error


@dataclass
class _Request:
    """Internal queue entry: one validated series plus its bookkeeping."""

    request_id: int
    seed: int
    series: np.ndarray
    deadline: float | None
    future: ServeFuture
    submitted_at: float = 0.0
    attempts: int = 0
    #: What the caller asked for: ``"label"`` (predict), ``"proba"``
    #: (predict_proba row), or ``"scores"`` (decision_function row).
    mode: str = "label"


class InferenceService:
    """Low-latency serving wrapper around a frozen, fitted classifier.

    Parameters
    ----------
    classifier:
        A fitted :class:`~repro.core.pipeline.IPSClassifier` (typically
        from :func:`repro.serve.load_artifact`) or shapelet-transform
        baseline; the service serves its ``model_``.
    config:
        :class:`ServeConfig`; defaults are sized for tests/benchmarks.
    fault_plan:
        Optional :class:`~repro.distributed.faults.FaultPlan` — wraps
        both execution paths with deterministic per-request fault
        injection (the chaos-test substrate).
    clock:
        Monotonic clock, injectable for deterministic deadline tests.
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`.
        When set, the service publishes live ``serve.*`` counters,
        gauges, and sliding-window latency histograms (the catalog in
        ``docs/observability.md``); when ``None`` (the default, the
        ``observability="off"`` contract) every instrumentation branch
        is skipped and the request path does no extra work.
    slo:
        Optional :class:`~repro.obs.telemetry.SLOTracker` fed one
        (latency, error) sample per completed request; its burn feeds
        :meth:`health` and ``/healthz``.
    """

    def __init__(
        self,
        classifier,
        config: ServeConfig | None = None,
        fault_plan=None,
        clock=time.monotonic,
        *,
        metrics=None,
        slo=None,
    ) -> None:
        if getattr(classifier, "model_", None) is None:
            raise NotFittedError("InferenceService needs a fitted classifier")
        self.classifier = classifier
        self.config = config or ServeConfig()
        self._clock = clock
        self.metrics = metrics
        self.slo = slo
        self._injector = (
            RequestFaultInjector(fault_plan) if fault_plan is not None else None
        )
        # The classifier's model, unbound from any kernel cache: the same
        # shapelet objects and classifier weights as offline predict, so
        # responses stay bit-identical. Each microbatch gets a fresh cache
        # inside the transform, so its window stats/FFTs are computed
        # once per batch, not once per shapelet; no microbatch matrix is
        # ever seen twice, so a longer-lived cache would never hit.
        self._model = classifier.model_.with_cache(None)
        self.series_length: int = self._model.series_length
        self._classes = np.asarray(self._model.classes_, dtype=np.int64)
        self.queue = AdmissionQueue(
            self.config.queue_depth, self.config.shed_policy
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_after=self.config.breaker_reset_s,
            clock=clock,
        )
        self._lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._running = False
        self._next_id = 0
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "invalid": 0,
            "expired": 0,
            "shed": 0,
            "rejected": 0,
            "failed": 0,
            "serial_fallbacks": 0,
            "batches": 0,
        }

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "InferenceService":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._workers = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-{i}",
                    daemon=True,
                )
                for i in range(self.config.n_workers)
            ]
            for worker in self._workers:
                worker.start()
        return self

    def stop(self) -> None:
        """Stop accepting work, fail pending requests, join the workers."""
        with self._lock:
            if not self._running:
                return
            self._running = False
        self.queue.close()
        for request in self.queue.drain():
            self._complete(
                request,
                error=ServiceClosedError(
                    "service stopped before the request was served"
                ),
            )
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers = []

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the worker pool is live."""
        return self._running

    # -- request path -----------------------------------------------------

    def _validate_request(self, series) -> np.ndarray:
        """Apply the per-request data contracts; typed errors on refusal."""
        mode = self.config.validation
        try:
            arr = np.asarray(series, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(f"request is not numeric: {exc}") from exc
        if arr.ndim != 1:
            raise InvalidRequestError(
                f"request series must be 1-D, got shape {arr.shape}"
            )
        if arr.size == 0:
            raise InvalidRequestError("request series is empty")
        if mode == "off":
            if arr.size != self.series_length:
                raise InvalidRequestError(
                    f"request length {arr.size} != model series length "
                    f"{self.series_length} (validation is off; no repair)"
                )
            if not np.isfinite(arr).all():
                raise InvalidRequestError(
                    "request contains non-finite values (validation is off)"
                )
            return arr.copy()
        try:
            arr, _report = validate_series(arr, mode=mode, name="request")
        except ValidationError as exc:
            raise InvalidRequestError(str(exc)) from exc
        if arr.size != self.series_length:
            if mode == "strict":
                raise InvalidRequestError(
                    f"request length {arr.size} != model series length "
                    f"{self.series_length}"
                )
            arr = pad_or_truncate(arr, self.series_length)
        return arr

    def submit(
        self,
        series,
        deadline_s: float | None = None,
        *,
        seed: int | None = None,
        mode: str = "label",
    ) -> ServeFuture:
        """Validate and enqueue one series; returns its future.

        Admission-time refusals raise typed errors synchronously:
        :class:`InvalidRequestError`, :class:`QueueFullError`,
        :class:`DeadlineExceededError` (non-positive deadline), and
        :class:`ServiceClosedError`. Requests evicted later by the
        shed-oldest policy see :class:`RequestSheddedError` through
        their future.
        """
        if not self._running:
            raise ServiceClosedError("service is not running; call start()")
        if mode not in REQUEST_MODES:
            raise InvalidRequestError(
                f"unknown request mode {mode!r}; choose from {REQUEST_MODES}"
            )
        now = self._clock()
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        if deadline_s is not None and deadline_s <= 0:
            self._count("expired")
            raise DeadlineExceededError(
                f"deadline {deadline_s}s already expired at admission"
            )
        try:
            arr = self._validate_request(series)
        except InvalidRequestError:
            self._count("invalid")
            raise
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        request = _Request(
            request_id=request_id,
            seed=request_id if seed is None else seed,
            series=arr,
            deadline=None if deadline_s is None else now + deadline_s,
            future=ServeFuture(request_id),
            submitted_at=now,
            mode=mode,
        )
        try:
            shed = self.queue.put(request)
        except Exception:
            self._count("rejected")
            raise
        self._count("submitted")
        for victim in shed:
            self._count("shed")
            self._complete(
                victim,
                error=RequestSheddedError(
                    f"request {victim.request_id} shed under overload "
                    "(shed-oldest policy)"
                ),
            )
        return request.future

    @property
    def classes_(self) -> np.ndarray:
        """Original-valued class labels of the served model, sorted."""
        return self._classes

    def predict_one(self, series, deadline_s: float | None = None):
        """Blocking single-series convenience: submit one row and wait."""
        return self.submit(series, deadline_s).result()

    def predict(self, X, deadline_s: float | None = None):
        """Predict labels for every row of ``X``; ``(M,)`` int64.

        The :class:`repro.types.Predictor` surface: returns one label per
        row, and raises the first request's typed error on failure (use
        :meth:`predict_many` for per-row outcomes). A 1-D input is one
        row, as in :meth:`predict_proba`, so it returns shape ``(1,)``
        like the offline classifier; :meth:`predict_one` returns a scalar.
        """
        return np.asarray(self._results(X, deadline_s, "label"), dtype=np.int64)

    def _results(self, X, deadline_s, mode: str) -> list:
        """Submit every row of ``X`` (a 1-D ``X`` is one row), then wait."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        futures = [self.submit(row, deadline_s, mode=mode) for row in X]
        return [future.result() for future in futures]

    def _gather_rows(self, X, deadline_s, mode: str) -> np.ndarray:
        rows = [
            np.asarray(result, dtype=np.float64)
            for result in self._results(X, deadline_s, mode)
        ]
        return (
            np.vstack(rows)
            if rows
            else np.empty((0, self._classes.size), dtype=np.float64)
        )

    def predict_proba(self, X, deadline_s: float | None = None) -> np.ndarray:
        """Per-class probabilities, ``(M, C)`` in :attr:`classes_` order.

        Served through the same admission/deadline/breaker ladder as
        :meth:`predict` — score requests degrade (and fail) identically.
        """
        return self._gather_rows(X, deadline_s, "proba")

    def decision_function(self, X, deadline_s: float | None = None) -> np.ndarray:
        """Per-class decision values, ``(M, C)`` in :attr:`classes_` order."""
        return self._gather_rows(X, deadline_s, "scores")

    def predict_many(self, X, deadline_s: float | None = None) -> list:
        """Submit every row of ``X``; returns ``(label | None, error | None)``
        pairs in row order, never raising for per-request failures."""
        futures = []
        for row in np.asarray(X, dtype=np.float64):
            try:
                futures.append(self.submit(row, deadline_s))
            except Exception as exc:  # noqa: BLE001 - admission refusals are data
                futures.append(exc)
        out = []
        for item in futures:
            if isinstance(item, BaseException):
                out.append((None, item))
                continue
            try:
                out.append((item.result(), None))
            except Exception as exc:  # noqa: BLE001
                out.append((None, exc))
        return out

    # -- worker side ------------------------------------------------------

    def _worker_loop(self) -> None:
        while self._running:
            batch = self.queue.get_batch(
                self.config.max_batch, self.config.batch_wait_s
            )
            if not batch:
                continue
            try:
                self._process_batch(batch)
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                for request in batch:
                    self._complete(
                        request,
                        error=RequestFailedError(
                            f"internal serving failure: "
                            f"{type(exc).__name__}: {exc}"
                        ),
                    )

    def _expire_due(self, requests: list) -> list:
        """Complete past-deadline requests; returns the still-live rest."""
        now = self._clock()
        live = []
        for request in requests:
            if request.deadline is not None and now >= request.deadline:
                self._count("expired")
                self._complete(
                    request,
                    error=DeadlineExceededError(
                        f"request {request.request_id} missed its deadline "
                        "before execution"
                    ),
                )
            else:
                live.append(request)
        return live

    def _process_batch(self, batch: list) -> None:
        self._count("batches")
        if self.metrics is not None:
            self._observe_batch(batch)
        live = self._expire_due(batch)
        if not live:
            return
        serial: list = []
        if self.breaker.allow():
            try:
                payloads = self._run_batched(live)
            except Exception:  # noqa: BLE001 - batch death = worker failure
                self.breaker.record_failure()
                serial = live
            else:
                corrupt = [
                    self._payload_corrupt(request, payload)
                    for request, payload in zip(live, payloads)
                ]
                if any(corrupt):
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
                for request, payload, bad in zip(live, payloads, corrupt):
                    if bad:
                        serial.append(request)
                    else:
                        self._count("completed")
                        self._complete(request, value=payload)
        else:
            serial = live
        for request in serial:
            self._count("serial_fallbacks")
            self._serve_serial(request)

    def _compute_matrix(self, X: np.ndarray, mode: str) -> np.ndarray:
        """One microbatch through the offline-identical kernel path in the
        requested mode (the chaos tests intercept this hook)."""
        if mode == "label":
            return self._model.predict(X)
        if mode == "proba":
            return self._model.predict_proba(X)
        return self._model.decision_function(X)

    def _payload_corrupt(self, request, payload) -> bool:
        """Payload validation: the corrupt-response detector per mode."""
        if request.mode == "label":
            return not np.isin(payload, self._classes)
        payload = np.asarray(payload)
        return payload.shape != (self._classes.size,) or not np.isfinite(
            payload
        ).all()

    def _corrupted_payload(self, request):
        """What a corrupted response looks like in the request's mode."""
        if request.mode == "label":
            return CORRUPT_LABEL
        return np.full(self._classes.size, np.nan)

    def _run_batched(self, requests: list) -> list:
        """One kernel pass over the microbatch, with fault hooks applied.

        Returns one payload per request (a label, or a score row for the
        ``proba``/``scores`` modes); mixed-mode batches share the single
        transform pass through per-mode sub-batches.
        """
        attempt = 0
        if self._injector is not None:
            # A crash/hang anywhere in the batch takes the whole batch
            # down, exactly like a worker process dying mid-request.
            for request in requests:
                self._injector.pre_compute(request.seed, attempt)
        for request in requests:
            request.attempts += 1
        payloads: list = [None] * len(requests)
        for mode in {request.mode for request in requests}:
            indices = [
                i for i, request in enumerate(requests) if request.mode == mode
            ]
            X = np.vstack([requests[i].series for i in indices])
            out = self._compute_matrix(X, mode)
            for row, i in enumerate(indices):
                payloads[i] = out[row]
        if self._injector is not None:
            for i, request in enumerate(requests):
                if self._injector.corrupts(request.seed, attempt):
                    payloads[i] = self._corrupted_payload(request)
        return payloads

    def _serve_serial(self, request) -> None:
        """Degraded path: one request at a time, bounded retries.

        The RetryingExecutor recipe applied to serving: per-attempt
        exception capture, attempt-indexed fault decisions (so injected
        faults are transient), payload validation, and the deadline
        checked before every attempt.
        """
        last_error = "batched path failed"
        for attempt in range(1, self.config.serial_retries + 2):
            now = self._clock()
            if request.deadline is not None and now >= request.deadline:
                self._count("expired")
                self._complete(
                    request,
                    error=DeadlineExceededError(
                        f"request {request.request_id} missed its deadline "
                        f"after {request.attempts} attempt(s)"
                    ),
                )
                return
            request.attempts += 1
            try:
                if self._injector is not None:
                    self._injector.pre_compute(request.seed, attempt)
                prediction = self._compute_matrix(
                    request.series.reshape(1, -1), request.mode
                )[0]
                if self._injector is not None and self._injector.corrupts(
                    request.seed, attempt
                ):
                    prediction = self._corrupted_payload(request)
            except Exception as exc:  # noqa: BLE001 - retryable by design
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if self._payload_corrupt(request, prediction):
                last_error = "corrupt payload (response failed validation)"
                continue
            self._count("completed")
            self._complete(request, value=prediction)
            return
        self._count("failed")
        self._complete(
            request,
            error=RequestFailedError(
                f"request {request.request_id} failed after "
                f"{request.attempts} attempt(s); last error: {last_error}"
            ),
        )

    # -- bookkeeping ------------------------------------------------------

    def _complete(self, request, value=None, error=None) -> None:
        future = request.future
        if future.done():
            return
        future.latency = self._clock() - request.submitted_at
        future._value = value
        future._error = error
        future._event.set()
        if self.metrics is not None:
            with self._lock:
                self.metrics.observe_window(
                    "serve.request_latency_seconds", future.latency
                )
        if self.slo is not None:
            self.slo.record(future.latency, error=error is not None)

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._stats[key] += n
            # Mirrored under the same lock: the registry itself is not
            # synchronized, and chaos tests reconcile these totals.
            if self.metrics is not None:
                self.metrics.counter(f"serve.{key}", n)

    def _observe_batch(self, batch: list) -> None:
        """Per-microbatch telemetry (only called when a registry is set)."""
        now = self._clock()
        with self._lock:
            metrics = self.metrics
            metrics.observe_window("serve.batch_size", len(batch))
            for request in batch:
                metrics.observe_window(
                    "serve.admission_wait_seconds", now - request.submitted_at
                )
            metrics.gauge("serve.queue_depth", len(self.queue))
            metrics.gauge(
                "serve.breaker_state", BREAKER_STATE_GAUGE[self.breaker.state]
            )

    def stats(self) -> dict:
        """Aggregate service / queue / breaker counters."""
        with self._lock:
            stats = dict(self._stats)
        stats["queue"] = self.queue.stats()
        stats["breaker"] = self.breaker.stats()
        if self.slo is not None:
            stats["slo"] = self.slo.snapshot()
        return stats

    def health_reasons(self) -> list:
        """Typed degraded/unhealthy reasons for the current state."""
        reasons: list[HealthReason] = []
        if not self._running:
            reasons.append(
                HealthReason(
                    code="service_stopped",
                    severity="unhealthy",
                    detail="worker pool is not running",
                )
            )
        state = self.breaker.state
        if state == OPEN:
            reasons.append(
                HealthReason(
                    code="breaker_open",
                    severity="unhealthy",
                    detail="batched path tripped; serving serial fallback only",
                )
            )
        elif state == HALF_OPEN:
            reasons.append(
                HealthReason(
                    code="breaker_half_open",
                    severity="degraded",
                    detail="probing the batched path after an open period",
                )
            )
        waiting = len(self.queue)
        ratio = waiting / self.config.queue_depth
        if ratio >= 1.0:
            reasons.append(
                HealthReason(
                    code="queue_saturation",
                    severity="unhealthy",
                    detail=(
                        f"admission queue full ({waiting}/"
                        f"{self.config.queue_depth}); requests are being "
                        f"{'shed' if self.config.shed_policy == 'shed-oldest' else 'rejected'}"
                    ),
                )
            )
        elif ratio >= QUEUE_SATURATION_DEGRADED:
            reasons.append(
                HealthReason(
                    code="queue_saturation",
                    severity="degraded",
                    detail=(
                        f"admission queue {ratio:.0%} full "
                        f"({waiting}/{self.config.queue_depth})"
                    ),
                )
            )
        if self.slo is not None:
            reasons.extend(self.slo.reasons())
        return reasons

    def health(self) -> HealthReport:
        """Aggregate :class:`HealthReport` — what ``/healthz`` serves."""
        return HealthReport.from_reasons(self.health_reasons())


__all__ = [
    "BREAKER_STATE_GAUGE",
    "InferenceService",
    "QUEUE_SATURATION_DEGRADED",
    "REQUEST_MODES",
    "ServeConfig",
    "ServeFuture",
]
