"""Runtime-telemetry suite: windowed histograms, Prometheus exposition,
the SLO tracker, typed health, the exposition server, and the CLI faces
(``repro obs top``).

The integration tests exercise the acceptance path end to end: a live
``/metrics`` + ``/healthz`` fetch against an instrumented
:class:`InferenceService` while it is serving, and bit-identity of the
instrumented-vs-bare predictions.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.obs import (
    BUCKET_BOUNDS,
    HealthReason,
    HealthReport,
    MetricsRegistry,
    SLOTracker,
    TelemetryServer,
    WindowedHistogram,
    prometheus_name,
    render_prometheus,
)

pytestmark = pytest.mark.timeout_guard(60)


def _fetch(url: str) -> tuple[int, str]:
    """GET a URL, returning (status, body) — 4xx/5xx included."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


# -- the histogram primitive ----------------------------------------------


class TestWindowedHistogram:
    def test_empty_window(self):
        hist = WindowedHistogram(capacity=4)
        assert len(hist) == 0
        assert hist.values() == []
        assert hist.window_mean == 0.0
        assert math.isnan(hist.quantile(0.5))
        assert hist.over_threshold_fraction(1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedHistogram(capacity=0)
        hist = WindowedHistogram()
        hist.append(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_eviction_is_exact(self):
        hist = WindowedHistogram(capacity=8)
        samples = [0.001 * (i + 1) for i in range(20)]
        for value in samples:
            hist.append(value)
        # Window holds exactly the last 8 samples, oldest first.
        assert hist.values() == samples[-8:]
        assert len(hist) == 8
        assert hist.window_sum == pytest.approx(sum(samples[-8:]))
        assert hist.window_mean == pytest.approx(sum(samples[-8:]) / 8)
        # Lifetime tallies never evict.
        assert hist.total_count == 20
        assert hist.total_sum == pytest.approx(sum(samples))
        # Bucket counts stayed consistent through every eviction: the
        # quantile sweep sees exactly the 8 windowed samples.
        assert hist.quantile(1.0) >= max(samples[-8:])

    def test_over_threshold_fraction_is_exact(self):
        hist = WindowedHistogram(capacity=10)
        for value in (0.01, 0.02, 0.5, 0.6, 0.7):
            hist.append(value)
        assert hist.over_threshold_fraction(0.1) == pytest.approx(3 / 5)
        # Strictly above: the boundary value itself does not count.
        assert hist.over_threshold_fraction(0.7) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quantiles_within_bucket_error_bounds(self, seed):
        """Property: bucket quantiles land within one factor-2 bucket of
        the exact rank statistic, for log-uniform positive samples."""
        rng = np.random.default_rng(seed)
        samples = np.exp(rng.uniform(np.log(1e-5), np.log(10.0), size=300))
        hist = WindowedHistogram(capacity=256)
        for value in samples:
            hist.append(float(value))
        window = sorted(hist.values())
        for q in (0.1, 0.5, 0.9, 0.99, 1.0):
            exact = window[max(1, math.ceil(q * len(window))) - 1]
            estimate = hist.quantile(q)
            # The estimate is the upper bound of the exact sample's
            # bucket: never below the true value, at most 2x above.
            assert exact <= estimate <= 2.0 * exact

    def test_top_bucket_returns_window_max(self):
        hist = WindowedHistogram(capacity=4)
        huge = BUCKET_BOUNDS[-2] * 10  # beyond the last finite bound
        hist.append(huge)
        assert hist.quantile(0.99) == huge
        assert math.isfinite(hist.quantile(0.99))

    def test_snapshot_round_trip(self):
        hist = WindowedHistogram(capacity=6)
        for value in (0.002, 0.004, 0.1, 0.25, 3.0, 0.5, 0.007):
            hist.append(value)
        snap = hist.snapshot()
        restored = WindowedHistogram.from_snapshot(snap)
        assert restored.snapshot() == snap
        assert restored.values() == hist.values()
        assert restored.total_count == hist.total_count

    def test_registry_windows_snapshot_gated(self):
        registry = MetricsRegistry()
        registry.counter("x")
        # No windows -> no "windows" key (pre-telemetry JSONL stability).
        assert "windows" not in registry.snapshot()
        registry.observe_window("lat", 0.01)
        snap = registry.snapshot()
        assert snap["windows"]["lat"]["count"] == 1
        restored = MetricsRegistry.from_snapshot(snap)
        assert restored.snapshot() == snap

    def test_registry_merge_folds_windows(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe_window("lat", 0.01)
        b.observe_window("lat", 0.02)
        b.observe_window("other", 1.0)
        a.merge(b)
        snap = a.snapshot()["windows"]
        assert snap["lat"]["count"] == 2
        assert snap["other"]["count"] == 1


# -- Prometheus exposition -------------------------------------------------


class TestPrometheusRendering:
    def test_name_sanitization(self):
        assert prometheus_name("serve.shed") == "repro_serve_shed"
        assert prometheus_name("a-b c/d") == "repro_a_b_c_d"
        assert prometheus_name("9lives").startswith("repro_")

    def test_render_counters_gauges_windows(self):
        registry = MetricsRegistry()
        registry.counter("serve.shed", 3)
        registry.gauge("serve.queue_depth", 7.5)
        registry.observe("phase_seconds.fit", 1.25)
        for value in (0.01, 0.02, 0.04):
            registry.observe_window("serve.request_latency_seconds", value)
        text = render_prometheus(registry)
        assert text.endswith("\n")
        assert "# TYPE repro_serve_shed counter" in text
        assert "repro_serve_shed 3" in text
        assert "repro_serve_queue_depth 7.5" in text
        assert "repro_phase_seconds_fit_count 1" in text
        assert "# TYPE repro_serve_request_latency_seconds summary" in text
        assert 'repro_serve_request_latency_seconds{quantile="0.99"}' in text
        assert "repro_serve_request_latency_seconds_count 3" in text

    def test_render_is_deterministic_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        text = render_prometheus(registry)
        assert text == render_prometheus(registry)
        assert text.index("repro_a") < text.index("repro_b")

    def test_empty_window_renders_nan_quantiles(self):
        registry = MetricsRegistry()
        registry.window("lat")  # created, never observed
        text = render_prometheus(registry)
        assert 'repro_lat{quantile="0.5"} NaN' in text
        assert "repro_lat_count 0" in text


# -- SLO tracking ----------------------------------------------------------


class TestSLOTracker:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SLOTracker(latency_target_s=0.0)
        with pytest.raises(ValidationError):
            SLOTracker(latency_fraction=1.0)
        with pytest.raises(ValidationError):
            SLOTracker(error_rate_target=0.0)
        with pytest.raises(ValidationError):
            SLOTracker(unhealthy_burn=1.0)

    def test_latency_burn_math(self):
        slo = SLOTracker(
            latency_target_s=0.1, latency_fraction=0.9, error_rate_target=0.01
        )
        for _ in range(8):
            slo.record(0.01)
        for _ in range(2):
            slo.record(0.5)
        # 20% over target / 10% allowed = burn 2.0.
        assert slo.latency_burn == pytest.approx(2.0)
        snap = slo.snapshot()
        assert snap["over_target_fraction"] == pytest.approx(0.2)
        assert snap["latency_burn"] == pytest.approx(2.0)
        assert snap["window_requests"] == 10

    def test_error_burn_math(self):
        slo = SLOTracker(error_rate_target=0.1)
        for i in range(10):
            slo.record(0.001, error=i < 3)
        assert slo.error_burn == pytest.approx(3.0)
        assert slo.snapshot()["rolling_error_rate"] == pytest.approx(0.3)

    def test_reasons_ladder(self):
        slo = SLOTracker(
            latency_target_s=0.1,
            latency_fraction=0.9,
            error_rate_target=0.1,
            unhealthy_burn=5.0,
        )
        assert slo.reasons() == []
        # All requests over target: latency burn 1/0.1 = 10 >= 5.
        for _ in range(10):
            slo.record(0.5, error=True)
        codes = {r.code: r.severity for r in slo.reasons()}
        assert codes["slo_latency_burn"] == "unhealthy"
        assert codes["slo_error_burn"] == "unhealthy"

    def test_empty_tracker_snapshot(self):
        snap = SLOTracker().snapshot()
        assert snap["rolling_p99_s"] is None
        assert snap["latency_burn"] == 0.0
        assert snap["error_burn"] == 0.0


# -- typed health ----------------------------------------------------------


class TestHealthReport:
    def test_reason_severity_validated(self):
        with pytest.raises(ValidationError):
            HealthReason(code="x", severity="on-fire", detail="nope")

    def test_worst_severity_wins(self):
        degraded = HealthReason("a", "degraded", "d")
        unhealthy = HealthReason("b", "unhealthy", "u")
        assert HealthReport.from_reasons([]).status == "healthy"
        assert HealthReport.from_reasons([degraded]).status == "degraded"
        report = HealthReport.from_reasons([degraded, unhealthy])
        assert report.status == "unhealthy"
        assert not report.ok
        assert HealthReport.from_reasons([degraded]).ok

    def test_to_dict_is_json_friendly(self):
        report = HealthReport.from_reasons(
            [HealthReason("queue_saturation", "degraded", "80% full")]
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["status"] == "degraded"
        assert payload["reasons"][0]["code"] == "queue_saturation"


# -- the exposition server -------------------------------------------------


class TestTelemetryServer:
    def test_port_zero_binds_unique_ports(self):
        registry = MetricsRegistry()
        with TelemetryServer(registry) as a, TelemetryServer(registry) as b:
            assert a.port != 0 and b.port != 0
            assert a.port != b.port

    def test_endpoints(self):
        registry = MetricsRegistry()
        registry.counter("serve.completed", 5)
        registry.observe_window("serve.request_latency_seconds", 0.02)
        with TelemetryServer(registry) as server:
            status, text = _fetch(f"{server.url}/metrics")
            assert status == 200
            assert "repro_serve_completed 5" in text
            status, body = _fetch(f"{server.url}/metrics.json")
            assert status == 200
            assert json.loads(body) == json.loads(
                json.dumps(registry.snapshot())
            )
            status, body = _fetch(f"{server.url}/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "healthy", "reasons": []}
            status, _body = _fetch(f"{server.url}/nope")
            assert status == 404

    def test_healthz_503_when_unhealthy(self):
        report = HealthReport.from_reasons(
            [HealthReason("breaker_open", "unhealthy", "open")]
        )
        with TelemetryServer(MetricsRegistry(), health_fn=lambda: report) as s:
            status, body = _fetch(f"{s.url}/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "unhealthy"

    def test_health_fn_exception_yields_500(self):
        def broken():
            raise RuntimeError("boom")

        with TelemetryServer(MetricsRegistry(), health_fn=broken) as server:
            status, body = _fetch(f"{server.url}/healthz")
            assert status == 500
            assert "RuntimeError" in body

    def test_close_is_deterministic_and_idempotent(self):
        server = TelemetryServer(MetricsRegistry()).start()
        url = server.url
        server.close()
        server.close()  # idempotent
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"{url}/metrics", timeout=1)
        with pytest.raises(ValidationError):
            server.start()


# -- live service integration (the acceptance path) ------------------------


class TestLiveServiceTelemetry:
    def _requests(self, classifier, n=48, seed=21):
        rng = np.random.default_rng(seed)
        dataset = classifier._dataset
        rows = rng.integers(0, dataset.n_series, size=n)
        return dataset.X[rows] + 0.05 * rng.normal(
            size=(n, dataset.series_length)
        )

    def test_live_metrics_and_healthz_during_load(self, frozen_classifier):
        from repro.serve import InferenceService, ServeConfig

        registry = MetricsRegistry()
        slo = SLOTracker(latency_target_s=5.0, error_rate_target=0.5)
        X = self._requests(frozen_classifier)
        config = ServeConfig(queue_depth=len(X), max_batch=8)
        with InferenceService(
            frozen_classifier, config, metrics=registry, slo=slo
        ) as service:
            with TelemetryServer(
                registry, health_fn=service.health
            ) as server:
                # Enqueue the whole load, then poll the live endpoints
                # while the worker drains it — the acceptance fetch.
                futures = [service.submit(row) for row in X]
                status, mid_text = _fetch(f"{server.url}/metrics")
                assert status == 200
                assert "repro_serve_submitted" in mid_text
                for future in futures:
                    future.result(timeout=30)
                status, text = _fetch(f"{server.url}/metrics")
                assert status == 200
                assert f"repro_serve_completed {len(X)}" in text
                assert "repro_serve_request_latency_seconds_count" in text
                status, body = _fetch(f"{server.url}/healthz")
                assert status == 200
                assert json.loads(body)["status"] in ("healthy", "degraded")
            stats = service.stats()
        snap = registry.snapshot()
        assert snap["counters"]["serve.completed"] == stats["completed"]
        assert snap["windows"]["serve.request_latency_seconds"]["count"] == len(X)
        assert snap["windows"]["serve.batch_size"]["count"] >= 1
        assert snap["windows"]["serve.admission_wait_seconds"]["count"] == len(X)
        assert "serve.breaker_state" in snap["gauges"]
        assert stats["slo"]["window_requests"] == len(X)

    def test_uninstrumented_path_is_bit_identical(self, frozen_classifier):
        from repro.serve import InferenceService, ServeConfig

        X = self._requests(frozen_classifier, n=24, seed=5)
        config = ServeConfig(queue_depth=len(X), max_batch=8)
        with InferenceService(frozen_classifier, config) as bare:
            plain = [label for label, _err in bare.predict_many(X)]
        registry = MetricsRegistry()
        with InferenceService(
            frozen_classifier, config, metrics=registry, slo=SLOTracker()
        ) as instrumented:
            measured = [label for label, _err in instrumented.predict_many(X)]
        assert plain == measured
        assert registry.snapshot()["counters"]["serve.completed"] == len(X)

    def test_service_health_reflects_breaker(self, frozen_classifier):
        from repro.distributed.faults import FaultPlan
        from repro.serve import InferenceService, ServeConfig

        config = ServeConfig(
            queue_depth=12, max_batch=2, breaker_reset_s=60.0
        )
        X = self._requests(frozen_classifier, n=12, seed=9)
        with InferenceService(
            frozen_classifier,
            config,
            fault_plan=FaultPlan(crash_rate=1.0, seed=3),
            metrics=MetricsRegistry(),
        ) as service:
            service.predict_many(X)
            report = service.health()
        codes = {r.code for r in report.reasons}
        assert report.status == "unhealthy"
        assert "breaker_open" in codes or "service_stopped" in codes


# -- campaign instrumentation ---------------------------------------------


class TestCampaignTelemetry:
    SPEC = None  # built lazily: campaign imports are heavier

    @staticmethod
    def _spec():
        from repro.campaign import CampaignSpec

        return CampaignSpec(
            datasets=("CBF",),
            methods=("1NN-ED", "BOP"),
            scenarios=("clean",),
            seed=7,
            name="telemetry",
        )

    @staticmethod
    def _worker(cell):
        return {
            "accuracy": 0.5,
            "completed": True,
            "discovery_seconds": 0.0,
            "fit_seconds": 0.01,
        }

    def test_cells_done_counters_and_window(self, tmp_path):
        from repro.campaign import CampaignRunner

        registry = MetricsRegistry()
        runner = CampaignRunner(
            self._spec(), tmp_path / "c", worker_fn=self._worker,
            metrics=registry,
        )
        runner.run()
        snap = registry.snapshot()
        assert snap["counters"]["campaign.cells_done"] == 2
        assert "campaign.cells_failed" not in snap["counters"]
        assert snap["windows"]["campaign.cell_seconds"]["count"] == 2

    def test_failed_and_retried_counters(self, tmp_path):
        from repro.campaign import CampaignRunner

        def flaky(cell):
            raise ValueError("synthetic cell crash")

        registry = MetricsRegistry()
        runner = CampaignRunner(
            self._spec(), tmp_path / "c", worker_fn=flaky,
            retries=1, metrics=registry,
        )
        runner.run()
        counters = registry.snapshot()["counters"]
        assert counters["campaign.cells_failed"] == 2
        assert counters["campaign.cells_retried"] == 2
        assert counters["campaign.retries"] == 2
        assert "campaign.cells_done" not in counters


# -- the CLI faces ---------------------------------------------------------


class TestObsTopCLI:
    def test_render_frame_sections(self):
        from repro.cli import _render_top_frame

        registry = MetricsRegistry()
        registry.counter("serve.completed", 4)
        registry.gauge("serve.queue_depth", 2)
        registry.observe_window("serve.request_latency_seconds", 0.02)
        health = HealthReport.from_reasons(
            [HealthReason("queue_saturation", "degraded", "80% full")]
        ).to_dict()
        frame = _render_top_frame(registry.snapshot(), health)
        assert "health: degraded" in frame
        assert "queue_saturation" in frame
        assert "latency windows" in frame
        assert "serve.completed" in frame
        assert "serve.queue_depth" in frame

    def test_render_frame_empty(self):
        from repro.cli import _render_top_frame

        assert "no metrics recorded yet" in _render_top_frame({}, None)

    def test_top_against_live_server(self, capsys):
        from repro.cli import main

        registry = MetricsRegistry()
        registry.counter("serve.completed", 9)
        with TelemetryServer(registry) as server:
            code = main(
                ["obs", "top", "--url", server.url, "--iterations", "1"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "health: healthy" in out
        assert "serve.completed" in out

    def test_top_needs_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["obs", "top"]) == 1
        assert (
            main(["obs", "top", "--url", "http://x", "--path", "y"]) == 1
        )

    def test_top_unreachable_server_fails_cleanly(self, capsys):
        from repro.cli import main

        registry = MetricsRegistry()
        server = TelemetryServer(registry).start()
        url = server.url
        server.close()
        assert main(["obs", "top", "--url", url]) == 1
