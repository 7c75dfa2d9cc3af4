"""Runtime telemetry: exposition, SLO tracking, and health endpoints.

PR 4's :mod:`repro.obs` stops at per-run traces; the online subsystems
(:mod:`repro.serve`, streaming sessions, campaigns) run for hours and
need *live* measurement. This module is that layer, built entirely on
the stdlib plus the existing :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`render_prometheus` — Prometheus text exposition of a registry
  snapshot: counters, gauges, summary histograms, and the sliding-window
  histograms rendered as Prometheus summaries (p50/p90/p99 quantiles);
* :class:`SLOTracker` — rolling latency/error-rate objectives over
  :class:`~repro.obs.metrics.WindowedHistogram` windows, with the
  error-budget *burn* (observed violation rate over allowed rate) the
  health endpoint and ``repro obs top`` both read;
* :class:`HealthReport` / :data:`HEALTH_STATES` — typed degraded /
  unhealthy reasons (breaker state, queue saturation, session capacity,
  SLO burn) produced by ``InferenceService.health()``;
* :class:`TelemetryServer` — an ``http.server`` daemon thread serving
  ``/metrics`` (Prometheus text), ``/metrics.json`` (the raw registry
  snapshot, what ``repro obs top`` polls), and ``/healthz`` (JSON, HTTP
  503 when unhealthy). Binds to port 0 by default so test suites never
  collide, and :meth:`TelemetryServer.close` is deterministic: the
  socket is closed and the thread joined before it returns.

Nothing here is on any hot path unless explicitly attached: services
built without a registry skip every instrumentation branch and answer
bit-identically to instrumented ones (the ``observability="off"``
contract, tested by ``make verify-obs``).
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry, WindowedHistogram

# -- Prometheus text exposition -------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Prefix of every exposed metric (``serve.shed`` -> ``repro_serve_shed``).
PROMETHEUS_PREFIX = "repro"


def prometheus_name(name: str) -> str:
    """Sanitize a registry name into a legal Prometheus metric name."""
    cleaned = _NAME_RE.sub("_", name.replace(".", "_"))
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return f"{PROMETHEUS_PREFIX}_{cleaned}"


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if value != int(value) else str(int(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry as Prometheus text exposition format 0.0.4.

    Counters and gauges map directly; summary histograms become four
    gauges (``_count``/``_sum``/``_min``/``_max``); sliding windows
    become Prometheus summaries: ``{quantile="0.5|0.9|0.99"}`` sample
    lines over the *window* plus lifetime ``_count``/``_sum``.
    Output is deterministic (sorted by name) so tests can pin it.
    """
    snap = registry.snapshot()
    lines: list[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, hist in sorted(snap.get("histograms", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        for key in ("count", "sum", "min", "max"):
            lines.append(f"{metric}_{key} {_format_value(hist[key])}")
    for name, window in sorted(snap.get("windows", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            value = window.get(key)
            if value is None:
                value = float("nan")
            lines.append(
                f'{metric}{{quantile="{quantile}"}} {_format_value(value)}'
            )
        lines.append(f"{metric}_sum {_format_value(window['sum'])}")
        lines.append(f"{metric}_count {_format_value(window['count'])}")
    return "\n".join(lines) + "\n"


# -- SLO tracking ----------------------------------------------------------


class SLOTracker:
    """Rolling latency / error-rate objectives over sliding windows.

    Parameters
    ----------
    latency_target_s:
        Per-request latency objective.
    latency_fraction:
        Fraction of requests that must meet the target (e.g. 0.99 =
        "99% of requests under ``latency_target_s``").
    error_rate_target:
        Allowed fraction of failed requests.
    window:
        Samples retained per rolling window.

    The tracker owns two :class:`WindowedHistogram` windows — latencies
    and error indicators (1.0 = failed) — fed by :meth:`record`. The
    *burn* of an objective is the observed violation rate divided by the
    allowed rate: burn <= 1 means within budget, burn > 1 means the
    rolling window is violating the SLO (the health endpoint degrades at
    ``burn > 1`` and goes unhealthy at ``burn >= unhealthy_burn``).
    """

    def __init__(
        self,
        latency_target_s: float = 0.1,
        latency_fraction: float = 0.99,
        error_rate_target: float = 0.01,
        window: int = 512,
        unhealthy_burn: float = 10.0,
    ) -> None:
        if latency_target_s <= 0:
            raise ValidationError("latency_target_s must be > 0")
        if not 0.0 < latency_fraction < 1.0:
            raise ValidationError("latency_fraction must be in (0, 1)")
        if not 0.0 < error_rate_target < 1.0:
            raise ValidationError("error_rate_target must be in (0, 1)")
        if unhealthy_burn <= 1.0:
            raise ValidationError("unhealthy_burn must be > 1")
        self.latency_target_s = float(latency_target_s)
        self.latency_fraction = float(latency_fraction)
        self.error_rate_target = float(error_rate_target)
        self.unhealthy_burn = float(unhealthy_burn)
        self._latency = WindowedHistogram(window)
        self._errors = WindowedHistogram(window)
        self._lock = threading.Lock()

    def record(self, latency_s: float | None, *, error: bool = False) -> None:
        """Record one finished request (latency may be unknown on error)."""
        with self._lock:
            if latency_s is not None:
                self._latency.append(latency_s)
            self._errors.append(1.0 if error else 0.0)

    @property
    def latency_burn(self) -> float:
        """Observed over-target fraction / allowed fraction (0 = clean)."""
        with self._lock:
            observed = self._latency.over_threshold_fraction(
                self.latency_target_s
            )
        return observed / (1.0 - self.latency_fraction)

    @property
    def error_burn(self) -> float:
        """Observed rolling error rate / allowed error rate."""
        with self._lock:
            observed = self._errors.window_mean
        return observed / self.error_rate_target

    def snapshot(self) -> dict:
        """JSON-friendly view for ``/healthz`` and ``repro obs top``."""
        with self._lock:
            p99 = self._latency.quantile(0.99)
            n = len(self._latency)
            observed_over = self._latency.over_threshold_fraction(
                self.latency_target_s
            )
            error_rate = self._errors.window_mean
        return {
            "latency_target_s": self.latency_target_s,
            "latency_fraction": self.latency_fraction,
            "error_rate_target": self.error_rate_target,
            "window_requests": n,
            "rolling_p99_s": None if math.isnan(p99) else p99,
            "over_target_fraction": observed_over,
            "rolling_error_rate": error_rate,
            "latency_burn": observed_over / (1.0 - self.latency_fraction),
            "error_burn": error_rate / self.error_rate_target,
        }

    def reasons(self) -> list["HealthReason"]:
        """Typed health reasons for objectives currently burning."""
        out: list[HealthReason] = []
        for code, burn in (
            ("slo_latency_burn", self.latency_burn),
            ("slo_error_burn", self.error_burn),
        ):
            if burn > 1.0:
                severity = (
                    "unhealthy" if burn >= self.unhealthy_burn else "degraded"
                )
                out.append(
                    HealthReason(
                        code=code,
                        severity=severity,
                        detail=f"rolling burn {burn:.2f}x the error budget",
                    )
                )
        return out


# -- health reporting ------------------------------------------------------

#: Health states, best to worst; a report's status is its worst reason.
HEALTH_STATES: tuple[str, ...] = ("healthy", "degraded", "unhealthy")


@dataclass(frozen=True)
class HealthReason:
    """One typed contribution to a health verdict."""

    code: str
    severity: str
    detail: str

    def __post_init__(self) -> None:
        if self.severity not in ("degraded", "unhealthy"):
            raise ValidationError(
                f"severity must be degraded|unhealthy, got {self.severity!r}"
            )

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class HealthReport:
    """Aggregate health: worst-severity status plus every typed reason."""

    status: str
    reasons: tuple[HealthReason, ...]

    @classmethod
    def from_reasons(cls, reasons: list[HealthReason]) -> "HealthReport":
        status = "healthy"
        for reason in reasons:
            if reason.severity == "unhealthy":
                status = "unhealthy"
                break
            status = "degraded"
        return cls(status=status, reasons=tuple(reasons))

    @property
    def ok(self) -> bool:
        """True unless unhealthy (degraded still serves)."""
        return self.status != "unhealthy"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reasons": [reason.to_dict() for reason in self.reasons],
        }


# -- the exposition server -------------------------------------------------


class TelemetryServer:
    """Stdlib HTTP exposition of one registry plus a health callable.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to expose.
    health_fn:
        Zero-argument callable returning a :class:`HealthReport` (or a
        plain dict); ``None`` reports unconditionally healthy.
    host, port:
        Bind address. The default port 0 lets the OS pick a free port
        (read it back from :attr:`port`) so concurrent test suites and
        services never collide.

    The server runs ``serve_forever`` on a daemon thread — it can never
    keep the process alive — and :meth:`close` shuts the loop down,
    closes the listening socket, and joins the thread before returning,
    so a service's ``stop()`` leaves no socket behind. Usable as a
    context manager.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        health_fn=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.health_fn = health_fn
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *_args) -> None:  # silence per-request noise
                pass

            def _send(self, status: int, content_type: str, body: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        self._send(
                            200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            render_prometheus(outer.registry),
                        )
                    elif path == "/metrics.json":
                        self._send(
                            200,
                            "application/json",
                            json.dumps(outer.registry.snapshot(), sort_keys=True),
                        )
                    elif path == "/healthz":
                        report = outer.health()
                        self._send(
                            200 if report["status"] != "unhealthy" else 503,
                            "application/json",
                            json.dumps(report, sort_keys=True),
                        )
                    else:
                        self._send(404, "text/plain", "not found\n")
                except Exception as exc:  # noqa: BLE001 - handler must not die
                    self._send(
                        500, "text/plain", f"{type(exc).__name__}: {exc}\n"
                    )

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def port(self) -> int:
        """The bound port (resolved after a port-0 bind)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def health(self) -> dict:
        """The current health report as a JSON-friendly dict."""
        if self.health_fn is None:
            return HealthReport.from_reasons([]).to_dict()
        report = self.health_fn()
        if isinstance(report, HealthReport):
            return report.to_dict()
        return dict(report)

    def start(self) -> "TelemetryServer":
        """Start the serving thread (idempotent)."""
        if self._closed:
            raise ValidationError("TelemetryServer already closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Deterministic shutdown: stop the loop, close the socket, join."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "HEALTH_STATES",
    "HealthReason",
    "HealthReport",
    "PROMETHEUS_PREFIX",
    "SLOTracker",
    "TelemetryServer",
    "prometheus_name",
    "render_prometheus",
]
