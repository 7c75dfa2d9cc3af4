"""``repro.obs``: structured tracing, metrics, and run manifests.

The observability layer of the reproduction, threaded through every
major pipeline stage (candidate generation, matrix profiles, DABF
pruning, utility scoring, transform, classification, distributed
retries, budget checks, validation repair). Zero dependencies beyond
the packages the pipeline already uses.

Four pieces:

* :func:`make_tracer` — each run's one instrument: a :class:`Tracer`
  owns the run's stage times and kernel counters and builds
  ``extra["perf"]``; a :class:`Trace` adds nestable ``span("phase",
  **attrs)`` context managers producing a run-scoped span tree with
  monotonic timestamps, per-span counters, and a JSONL sink
  (:meth:`Trace.to_jsonl` / :meth:`Trace.from_jsonl`, bit-identical
  round trips);
* :class:`MetricsRegistry` — per-run counters, gauges, and summary
  histograms; a trace's registry absorbs the run's final
  ``DiscoveryResult.extra["perf"]`` (kernel tallies and stage times);
* :func:`run_manifest` — config, seeds, dataset fingerprint, package
  versions, and git SHA, attached to every trace so a
  ``DiscoveryResult`` is reproducible from its trace alone;
* :func:`render_report` — the per-phase time-breakdown tree behind
  ``repro obs report``;
* :mod:`repro.obs.telemetry` — the *live* layer: Prometheus text
  exposition (:func:`render_prometheus`), a stdlib
  :class:`TelemetryServer` serving ``/metrics`` + ``/healthz``,
  :class:`SLOTracker` error-budget burn, and typed
  :class:`HealthReport` reasons, all over
  :class:`~repro.obs.metrics.WindowedHistogram` sliding windows.

Select a mode with ``IPSConfig(observability=...)``: ``"off"`` (no
spans and nothing attached to the result; the run's tracer still counts,
which is cheaper than a no-op sink), ``"counters"`` (the default: kernel
counters and stage times at ``extra["perf"]``), ``"trace"`` (span tree + metrics + manifest at
``DiscoveryResult.extra["trace"]``), or ``"trace+jsonl"`` (additionally
stream the trace to a JSONL file, default ``.repro-obs/last-run.jsonl``).
See ``docs/observability.md``.
"""

from repro.obs.manifest import (
    UNKNOWN_GIT_SHA,
    dataset_fingerprint,
    git_sha,
    package_versions,
    run_manifest,
)
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    WindowedHistogram,
)
from repro.obs.report import load_trace, render_report
from repro.obs.telemetry import (
    HEALTH_STATES,
    HealthReason,
    HealthReport,
    SLOTracker,
    TelemetryServer,
    prometheus_name,
    render_prometheus,
)
from repro.obs.trace import (
    DEFAULT_JSONL_PATH,
    NULL_TRACER,
    OBSERVABILITY_MODES,
    NullTracer,
    Span,
    Trace,
    Tracer,
    jsonify,
    make_tracer,
)

__all__ = [
    "BUCKET_BOUNDS",
    "DEFAULT_JSONL_PATH",
    "HEALTH_STATES",
    "HealthReason",
    "HealthReport",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OBSERVABILITY_MODES",
    "SLOTracker",
    "Span",
    "TelemetryServer",
    "Trace",
    "Tracer",
    "UNKNOWN_GIT_SHA",
    "WindowedHistogram",
    "dataset_fingerprint",
    "git_sha",
    "jsonify",
    "load_trace",
    "make_tracer",
    "package_versions",
    "prometheus_name",
    "render_prometheus",
    "render_report",
    "run_manifest",
]
