"""The observability subsystem: spans, metrics, manifests, JSONL, modes.

Contracts pinned here:

* span trees are well-nested and closed even when the traced code raises
  or a budget truncates the run mid-phase;
* a JSONL round trip (``to_jsonl`` -> ``from_jsonl`` -> ``to_jsonl``) is
  bit-identical;
* ``IPS.discover`` under ``observability="trace+jsonl"`` yields a span
  tree covering every pipeline phase, a valid run manifest, and a file
  ``repro obs report`` can render;
* ``observability="off"`` is bit-identical to ``"counters"`` on outputs,
  allocates zero trace objects, and attaches neither ``"trace"`` nor
  ``"perf"`` to the result;
* each fit stage is timed once: ``DiscoveryResult.time_*``,
  ``extra["perf"]["phase_seconds"]``, the stage span and the trace's
  ``phase_seconds.*`` gauges hold the same float, and a classifier fit
  finishes (absorbs and writes) its trace once;
* baselines surface kernel perf counters at ``model.perf_``;
* every run owner (IPS, distributed IPS, the classifier fits, the
  baselines) measures a run with one tracer, and its perf record, stage
  spans and trace metrics all read that tracer;
* distributed discovery leaves one ``"unit"`` event per work unit with
  retry/checkpoint provenance, and otherwise records the serial run's
  stage spans and ``extra["perf"]``.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest

import repro.baselines.base
import repro.baselines.learning_shapelets
import repro.core.pipeline
import repro.multivariate.pipeline
from repro.baselines.fast_shapelets import FastShapelets
from repro.baselines.learning_shapelets import LearningShapelets
from repro.classify.scaler import StandardScaler
from repro.baselines.mp_base import MPBaseline
from repro.cli import main as cli_main
from repro.core.budget import Budget
from repro.core.config import IPSConfig
from repro.core.pipeline import IPS, IPSClassifier
from repro.datasets import make_multivariate_planted
from repro.datasets.generators import make_planted_dataset
from repro.distributed.discovery import DistributedIPS
from repro.distributed.faults import FaultPlan
from repro.exceptions import ValidationError
from repro.kernels import PerfCounters
from repro.multivariate import MultivariateIPSClassifier
from repro.obs import (
    NULL_TRACER,
    UNKNOWN_GIT_SHA,
    MetricsRegistry,
    Trace,
    Tracer,
    dataset_fingerprint,
    load_trace,
    make_tracer,
    render_report,
    run_manifest,
)
from repro.obs.manifest import git_sha
from repro.obs.trace import NULL_SPAN, Span, jsonify


@pytest.fixture(scope="module")
def dataset():
    return make_planted_dataset(n_classes=2, n_instances=12, length=120, seed=3)


def _config(**overrides) -> IPSConfig:
    base = dict(k=3, q_n=8, q_s=3, seed=5)
    base.update(overrides)
    return IPSConfig(**base)


def _span_names(trace: Trace) -> set[str]:
    names: set[str] = set()

    def walk(span):
        names.add(span.name)
        for child in span.children:
            walk(child)

    for root in trace.roots:
        walk(root)
    return names


class TestSpanTree:
    def test_nesting_follows_call_structure(self):
        trace = Trace()
        with trace.span("outer", a=1) as outer:
            with trace.span("inner") as inner:
                trace.count("ticks", 2)
        assert trace.roots == [outer]
        assert outer.children == [inner]
        assert inner.counters == {"ticks": 2}
        assert trace.closed
        assert outer.end >= inner.end >= inner.start >= outer.start

    def test_closed_under_exceptions(self):
        trace = Trace()
        with pytest.raises(RuntimeError):
            with trace.span("outer"):
                with trace.span("inner"):
                    raise RuntimeError("boom")
        assert trace.closed
        # Still serializable after the failure.
        assert Trace.from_jsonl(trace.to_jsonl()).closed

    def test_unwinds_leaked_children(self):
        # An inner frame that opens a span without closing it (generator
        # abandoned mid-iteration, say) must not corrupt the tree.
        trace = Trace()
        with trace.span("outer"):
            cm = trace.span("leaked")
            cm.__enter__()  # never exited
        assert trace.roots[0].end is not None
        assert not trace._stack

    def test_events_and_attrs(self):
        trace = Trace()
        with trace.span("phase") as span:
            span.set(n=7)
            trace.event("checkpoint", reason="test")
        assert trace.roots[0].attrs["n"] == 7
        (event,) = trace.find("checkpoint")
        assert event.duration == 0.0
        assert event.attrs == {"reason": "test"}

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            Trace(mode="verbose")
        with pytest.raises(ValidationError):
            make_tracer("everything")


class TestJsonl:
    def test_round_trip_bit_identical(self):
        trace = Trace(mode="trace+jsonl")
        trace.manifest = {"seed": 3, "versions": {"repro": "0.1"}}
        with trace.span("discover", k=3):
            with trace.span("generation"):
                trace.count("candidates.generated", 12)
            trace.event("budget.exhausted", phase="generation")
        trace.metrics.gauge("kernels.cache_hit_rate", 0.5)
        trace.metrics.observe("phase_seconds.generation", 0.25)
        text = trace.to_jsonl()
        restored = Trace.from_jsonl(text)
        assert restored.to_jsonl() == text
        assert restored.mode == "trace+jsonl"
        assert restored.manifest["seed"] == 3
        assert _span_names(restored) == {
            "discover",
            "generation",
            "budget.exhausted",
        }

    def test_file_round_trip(self, tmp_path):
        trace = Trace()
        with trace.span("root"):
            pass
        path = tmp_path / "nested" / "trace.jsonl"
        text = trace.to_jsonl(path)
        assert path.read_text() == text
        assert Trace.from_jsonl(path).to_jsonl() == text

    def test_jsonify_handles_numpy_and_odd_types(self):
        assert jsonify(np.int64(3)) == 3
        assert jsonify(np.float64(0.5)) == 0.5
        assert jsonify((1, "a", None)) == [1, "a", None]
        assert jsonify({1: np.bool_(True)}) == {"1": True}
        assert isinstance(jsonify(object()), str)


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.counter("a", 2)
        registry.gauge("g", 0.5)
        for value in (1.0, 3.0, 2.0):
            registry.observe("h", value)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 3
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"] == {
            "count": 3,
            "sum": 6.0,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
        }
        restored = MetricsRegistry.from_snapshot(snap)
        assert restored.snapshot() == snap

    def test_absorb_perf_is_idempotent(self):
        registry = MetricsRegistry()
        registry.counter("candidates.generated", 10)
        perf = {"kernel_calls": 4, "cache_hits": 2, "cache_misses": 2,
                "cache_hit_rate": 0.5, "phase_seconds": {"generation": 0.1}}
        registry.absorb_perf(perf)
        registry.absorb_perf(perf)  # replace semantics: no double count
        snap = registry.snapshot()
        assert snap["counters"]["kernels.kernel_calls"] == 4
        assert snap["counters"]["candidates.generated"] == 10
        assert snap["gauges"]["kernels.cache_hit_rate"] == 0.5
        assert snap["gauges"]["phase_seconds.generation"] == 0.1


class TestDiscoveryTrace:
    def test_trace_covers_every_phase(self, dataset):
        ips = IPS(_config(observability="trace"))
        result = ips.discover(dataset)
        trace = result.extra["trace"]
        assert trace is ips.trace_
        assert trace.closed
        names = _span_names(trace)
        assert {
            "discover",
            "generation",
            "unit",
            "mp",
            "pruning",
            "dabf.build",
            "dabf.prune",
            "selection",
            "utility",
        } <= names
        # One unit span per (class, sample), carrying provenance attrs.
        units = trace.find("unit")
        assert len(units) == 2 * 8
        assert all("n_candidates" in u.attrs for u in units)
        counters = trace.metrics.snapshot()["counters"]
        assert counters["candidates.generated"] == result.n_candidates_generated
        assert counters["kernels.fft_count"] == result.extra["perf"]["fft_count"]

    def test_manifest_is_valid(self, dataset):
        ips = IPS(_config(observability="trace"))
        ips.discover(dataset)
        manifest = ips.trace_.manifest
        assert manifest["seed"] == 5
        assert manifest["config"]["k"] == 3
        assert manifest["config"]["observability"] == "trace"
        assert manifest["dataset"]["n_series"] == dataset.n_series
        assert manifest["dataset"]["sha256"] == dataset_fingerprint(dataset)[
            "sha256"
        ]
        assert "numpy" in manifest["versions"]
        assert "python" in manifest["versions"]
        # Stable fingerprint for identical data, different for different.
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)

    def test_budget_truncated_run_yields_closed_trace(self, dataset):
        config = _config(
            observability="trace", budget=Budget(max_candidates=1)
        )
        result = IPS(config).discover(dataset)
        assert not result.completed
        trace = result.extra["trace"]
        assert trace.closed
        assert trace.find("budget.exhausted")
        assert Trace.from_jsonl(trace.to_jsonl()).closed

    def test_jsonl_mode_writes_renderable_file(self, dataset, tmp_path):
        path = tmp_path / "run.jsonl"
        config = _config(
            observability="trace+jsonl", obs_jsonl_path=str(path)
        )
        IPS(config).discover(dataset)
        report = render_report(load_trace(path))
        assert "generation" in report
        assert "candidates.generated" in report
        assert "manifest" in report

    def test_classifier_shares_one_trace(self, dataset):
        clf = IPSClassifier(_config(observability="trace"))
        clf.fit_dataset(dataset)
        trace = clf.discovery_result_.extra["trace"]
        assert [root.name for root in trace.roots] == [
            "validation",
            "discover",
            "transform",
            "classify",
        ]
        assert trace.closed
        # Kernel counters include the transform phase work, once.
        counters = trace.metrics.snapshot()["counters"]
        assert counters["kernels.kernel_calls"] >= 0


#: The ``DiscoveryResult`` field of each discovery stage.
STAGE_FIELDS = {
    "generation": "time_candidate_generation",
    "pruning": "time_pruning",
    "selection": "time_selection",
}


def _stage_config(**overrides) -> IPSConfig:
    return IPSConfig(**{**dict(k=3, q_n=4, q_s=3, seed=0), **overrides})


def _planted(n_classes: int):
    return make_planted_dataset(
        n_classes=n_classes, n_instances=12, length=64, seed=3
    )


class TestStageClock:
    """Each fit stage is timed once; every view of it reads that value."""

    @pytest.mark.parametrize("mode", ["counters", "trace"])
    @pytest.mark.parametrize("use_dabf", [True, False], ids=["dabf", "no-dabf"])
    def test_stage_views_are_bit_equal(self, mode, use_dabf):
        result = IPS(
            _stage_config(use_dabf=use_dabf, observability=mode)
        ).discover(_planted(3))
        phase_seconds = result.extra["perf"]["phase_seconds"]
        assert list(phase_seconds) == list(STAGE_FIELDS)
        for stage, field in STAGE_FIELDS.items():
            assert phase_seconds[stage] == getattr(result, field)
        if mode == "trace":
            trace = result.extra["trace"]
            gauges = trace.metrics.snapshot()["gauges"]
            for stage, seconds in phase_seconds.items():
                [span] = trace.find(stage)
                assert span.duration == seconds
                assert gauges[f"phase_seconds.{stage}"] == seconds

    @pytest.mark.parametrize("discoverer", [IPS, DistributedIPS])
    @pytest.mark.parametrize("n_classes", [1, 3])
    @pytest.mark.parametrize("use_dabf", [True, False], ids=["dabf", "no-dabf"])
    def test_discover_holds_only_the_stages(self, discoverer, n_classes, use_dabf):
        trace = discoverer(
            _stage_config(use_dabf=use_dabf, observability="trace")
        ).discover(_planted(n_classes)).extra["trace"]
        [discover] = trace.find("discover")
        stages = discover.children
        assert [stage.name for stage in stages] == list(STAGE_FIELDS)
        # The DABF is built once, inside the stage that first needs it.
        builds = [
            child
            for stage in stages
            for child in stage.children
            if child.name == "dabf.build"
        ]
        assert len(builds) == len(trace.find("dabf.build")) == 1

    @pytest.mark.parametrize("entry", ["fit_dataset", "fit"])
    def test_classifier_fit_finishes_its_trace_once(
        self, dataset, tmp_path, monkeypatch, entry
    ):
        writes = []
        to_jsonl = Trace.to_jsonl

        def counting_to_jsonl(trace, path=None):
            if path is not None:
                writes.append(path)
            return to_jsonl(trace, path)

        monkeypatch.setattr(Trace, "to_jsonl", counting_to_jsonl)
        path = tmp_path / "fit.jsonl"
        clf = IPSClassifier(
            _config(observability="trace+jsonl", obs_jsonl_path=str(path))
        )
        if entry == "fit":
            clf.fit(dataset.X, dataset.y)
        else:
            clf.fit_dataset(dataset)
        assert len(writes) == 1
        result = clf.discovery_result_
        perf = result.extra["perf"]
        assert list(perf["phase_seconds"]) == [
            "validation", *STAGE_FIELDS, "transform", "classify",
        ]
        for stage, field in STAGE_FIELDS.items():
            assert perf["phase_seconds"][stage] == getattr(result, field)
        metrics = Trace.from_jsonl(path).metrics.snapshot()
        for field in dataclasses.fields(PerfCounters):
            key = field.name
            assert metrics["counters"][f"kernels.{key}"] == perf[key]
        for stage, seconds in perf["phase_seconds"].items():
            assert metrics["gauges"][f"phase_seconds.{stage}"] == seconds
            [span] = result.extra["trace"].find(stage)
            assert span.duration == seconds


class TestGenerationSpans:
    def test_round_holds_kernel_then_units(self, dataset):
        """generation > round > (stomp, unit > mp): one batched kernel per
        bagging round, then one harvest span per class."""
        trace = IPS(_config(observability="trace")).discover(dataset).extra["trace"]
        [generation] = trace.find("generation")
        rounds = generation.children
        assert [r.name for r in rounds] == ["round"] * 8
        for sample_id, round_span in enumerate(rounds):
            assert round_span.attrs["sample_id"] == sample_id
            names = [child.name for child in round_span.children]
            assert names == ["stomp", "unit", "unit"]
            stomp = round_span.children[0]
            units = round_span.children[1:]
            mp_spans = [mp for unit in units for mp in unit.children]
            assert stomp.attrs["problems"] == len(mp_spans)
            assert all(mp.name == "mp" for mp in mp_spans)
            assert [u.attrs["label"] for u in units] == [0, 1]

    def test_kernel_counters_unchanged_by_batching(self, dataset):
        """Per-unit caches keep kernel tallies at their per-row-loop values."""
        perf = IPS(_config(observability="counters")).discover(dataset).extra["perf"]
        assert perf["kernel_calls"] == 80
        assert perf["fft_count"] == 224
        assert perf["cache_hit_rate"] == pytest.approx(1 / 3, abs=0.0)


class TestOffMode:
    def test_off_is_bit_identical_and_allocation_free(self, dataset):
        reference = IPS(_config(observability="counters")).discover(dataset)
        before = Span.allocated
        result = IPS(_config(observability="off")).discover(dataset)
        assert Span.allocated == before
        assert "trace" not in result.extra
        assert "perf" not in result.extra
        assert len(result.shapelets) == len(reference.shapelets)
        for mine, theirs in zip(result.shapelets, reference.shapelets):
            assert np.array_equal(mine.values, theirs.values)
            assert mine.score == theirs.score

    def test_counters_mode_attaches_perf(self, dataset):
        result = IPS(_config(observability="counters")).discover(dataset)
        assert "trace" not in result.extra
        assert result.extra["perf"]["fft_count"] > 0

    def test_null_tracer_is_reusable_and_inert(self):
        before = Span.allocated
        tracer = make_tracer("off")
        for _ in range(3):
            with NULL_TRACER.span("anything", a=1) as span:
                assert span is NULL_SPAN
                span.set(b=2)
            with tracer.stage("stage", a=1) as span:
                assert span is NULL_SPAN
            NULL_TRACER.event("e")
            NULL_TRACER.count("c")
            tracer.count("c")
        assert Span.allocated == before
        assert list(tracer.times) == ["stage"] and tracer.times["stage"] > 0.0
        assert not NULL_TRACER.active and NULL_TRACER.counters is None
        assert not tracer.active and tracer.perf() is None
        # Every run gets its own instrument, in every mode.
        assert make_tracer("off") is not tracer
        assert type(make_tracer("counters")) is Tracer
        assert make_tracer("counters").perf() == {
            **PerfCounters().snapshot(), "phase_seconds": {},
        }


class TestDistributedTrace:
    def test_unit_events_record_provenance(self, dataset):
        dips = DistributedIPS(_config(observability="trace"))
        result = dips.discover(dataset)
        trace = result.extra["trace"]
        assert trace.closed
        units = trace.find("unit")
        assert len(units) == 2 * 8
        for unit in units:
            assert unit.attrs["ok"] is True
            assert unit.attrs["attempts"] == 1
            assert unit.attrs["from_checkpoint"] is False
        assert result.extra["units_per_class"] == {
            0: {"ok": 8, "total": 8},
            1: {"ok": 8, "total": 8},
        }

    def test_retries_surface_in_unit_events(self, dataset):
        from repro.core.config import FaultToleranceConfig

        config = _config(
            observability="trace",
            fault_tolerance=FaultToleranceConfig(
                max_retries=4, base_delay=0.0, seed=0
            ),
        )
        dips = DistributedIPS(
            config, fault_plan=FaultPlan(crash_rate=0.3, seed=11)
        )
        result = dips.discover(dataset)
        trace = result.extra["trace"]
        attempts = [u.attrs["attempts"] for u in trace.find("unit")]
        assert max(attempts) > 1
        counters = trace.metrics.snapshot()["counters"]
        assert counters["units.recovered"] >= 1
        assert Trace.from_jsonl(trace.to_jsonl()).closed
        assert len(result.shapelets) > 0


    def test_counters_mode_reports_serial_perf_keys(self, dataset):
        distributed = DistributedIPS(_config(observability="counters")).discover(
            dataset
        )
        serial = IPS(_config(observability="counters")).discover(dataset)
        assert "perf" in distributed.extra
        assert distributed.extra["perf"].keys() == serial.extra["perf"].keys()
        assert "generation" in distributed.extra["perf"]["phase_seconds"]

    def test_stage_spans_match_serial(self, dataset):
        """Same stages under ``discover`` as a serial run; generation holds
        one ``unit`` event per work unit instead of rounds."""

        def stages(trace):
            [discover] = trace.find("discover")
            return [
                (stage.name, [child.name for child in stage.children])
                for stage in discover.children
                if stage.name != "generation"
            ], [stage.name for stage in discover.children]

        distributed = DistributedIPS(_config(observability="trace")).discover(
            dataset
        )
        serial = IPS(_config(observability="trace")).discover(dataset)
        trace = distributed.extra["trace"]
        assert stages(trace) == stages(serial.extra["trace"])
        [generation] = trace.find("generation")
        assert [c.name for c in generation.children] == ["unit"] * (2 * 8)


class TestBaselinePerf:
    def test_mp_baseline_reports_kernel_work(self, dataset):
        model = MPBaseline(k=2, seed=0).fit_dataset(dataset)
        assert model.perf_ is not None
        assert model.perf_["cache_hits"] + model.perf_["cache_misses"] > 0
        assert list(model.perf_["phase_seconds"]) == [
            "discovery", "transform", "classify",
        ]
        assert model.perf_["phase_seconds"]["discovery"] == model.discovery_seconds_

    def test_baseline_fits_its_scaler_in_the_classify_stage(
        self, dataset, monkeypatch
    ):
        """Baselines fit through IPS's stage layout: the ``transform``
        stage embeds, the ``classify`` stage fits scaler and SVM."""
        open_stages: list[str] = []
        scaler_fits: list[list[str]] = []
        stage = Tracer.stage

        @contextmanager
        def recording_stage(self, name, **attrs):
            open_stages.append(name)
            try:
                with stage(self, name, **attrs) as span:
                    yield span
            finally:
                open_stages.pop()

        fit_transform = StandardScaler.fit_transform

        def recording_fit_transform(self, X):
            scaler_fits.append(list(open_stages))
            return fit_transform(self, X)

        monkeypatch.setattr(Tracer, "stage", recording_stage)
        monkeypatch.setattr(StandardScaler, "fit_transform", recording_fit_transform)
        model = MPBaseline(k=2, seed=0).fit_dataset(dataset)
        assert scaler_fits == [["classify"]]
        assert list(model.perf_["phase_seconds"]) == [
            "discovery", "transform", "classify",
        ]
        assert model.perf_["phase_seconds"]["discovery"] == model.discovery_seconds_

    def test_fast_shapelets_reports_kernel_work(self, dataset):
        model = FastShapelets(k=2, seed=0).fit_dataset(dataset)
        assert model.perf_ is not None
        assert model.perf_["cache_misses"] > 0


def _multivariate():
    return make_multivariate_planted(
        n_classes=2, n_instances=12, n_dimensions=2, length=48,
        informative_dimensions=2, seed=1,
    )


#: Every run owner: ``(stages, fit)``. ``fit(config)`` runs one fit and
#: returns the owner's perf record (``extra["perf"]`` or ``perf_``); the
#: baselines take no config and run in the mode the test forces on them.
RUN_OWNERS = {
    "IPS": (
        list(STAGE_FIELDS),
        lambda config: IPS(config).discover(_planted(3)).extra["perf"],
    ),
    "DistributedIPS": (
        list(STAGE_FIELDS),
        lambda config: DistributedIPS(config).discover(_planted(3)).extra["perf"],
    ),
    "IPSClassifier": (
        ["validation", *STAGE_FIELDS, "transform", "classify"],
        lambda config: IPSClassifier(config)
        .fit_dataset(_planted(3))
        .discovery_result_.extra["perf"],
    ),
    "MPBaseline": (
        ["discovery", "transform", "classify"],
        lambda config: MPBaseline(k=2, seed=0).fit_dataset(_planted(3)).perf_,
    ),
    "LearningShapelets": (
        ["discovery"],
        lambda config: LearningShapelets(k_per_class=2, epochs=20, seed=0)
        .fit_dataset(_planted(3))
        .perf_,
    ),
    "MultivariateIPSClassifier": (
        [*STAGE_FIELDS, "transform", "classify"],
        lambda config: MultivariateIPSClassifier(config)
        .fit_dataset(_multivariate())
        .perf_,
    ),
}

#: Every module that makes a run's tracer.
TRACER_MAKERS = (
    repro.core.pipeline,
    repro.multivariate.pipeline,
    repro.baselines.base,
    repro.baselines.learning_shapelets,
)


class TestOneRecord:
    """Each run owner measures its run with one tracer, and every view of
    the run (the perf record, the stage spans, the trace metrics) reads
    that tracer's stage times and kernel counters."""

    @pytest.mark.parametrize("mode", ["counters", "trace"])
    @pytest.mark.parametrize("owner", list(RUN_OWNERS))
    def test_every_view_reads_one_record(self, owner, mode, monkeypatch):
        made = []

        def recording_make_tracer(requested):
            made.append(make_tracer(mode))
            return made[-1]

        for module in TRACER_MAKERS:
            monkeypatch.setattr(module, "make_tracer", recording_make_tracer)
        stages, fit = RUN_OWNERS[owner]
        perf = fit(_stage_config(observability=mode))
        [tracer] = made
        assert list(perf) == [*PerfCounters().snapshot(), "phase_seconds"]
        assert perf == {
            **tracer.counters.snapshot(), "phase_seconds": tracer.times,
        }
        assert list(perf["phase_seconds"]) == stages
        if mode == "counters":
            assert not tracer.active
            return
        metrics = tracer.metrics.snapshot()
        for stage, seconds in perf["phase_seconds"].items():
            # A multivariate fit runs each discovery stage once per
            # dimension; the record holds their sum, in span order.
            assert sum(span.duration for span in tracer.find(stage)) == seconds
            assert metrics["gauges"][f"phase_seconds.{stage}"] == seconds
        for field in dataclasses.fields(PerfCounters):
            key = field.name
            assert metrics["counters"][f"kernels.{key}"] == perf[key]

    def test_multivariate_counts_every_dimension(self):
        dataset = _multivariate()
        config = _stage_config()
        clf = MultivariateIPSClassifier(config).fit_dataset(dataset)
        per_dimension = [
            IPS(config).discover(dataset.dimension(dim)).extra["perf"]
            for dim in range(dataset.n_dimensions)
        ]
        assert clf.perf_["kernel_calls"] > 0
        for field in dataclasses.fields(PerfCounters):
            key = field.name
            assert clf.perf_[key] == sum(perf[key] for perf in per_dimension)


class TestReportAndCli:
    def test_render_report_sections(self, dataset):
        ips = IPS(_config(observability="trace"))
        ips.discover(dataset)
        report = render_report(ips.trace_)
        for needle in ("span tree", "discover", "generation", "counters",
                       "gauges", "seed: 5"):
            assert needle in report

    def test_cli_obs_report(self, dataset, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        config = _config(
            observability="trace+jsonl", obs_jsonl_path=str(path)
        )
        IPS(config).discover(dataset)
        assert cli_main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "generation" in out

    def test_cli_obs_report_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert cli_main(["obs", "report", str(missing)]) == 1
        assert "no trace file" in capsys.readouterr().err

    def test_config_rejects_unknown_observability(self):
        with pytest.raises(ValidationError):
            IPSConfig(observability="loud")


class TestGitSha:
    """The manifest's git SHA is best-effort: every odd checkout state
    degrades to ``"unknown"``, never to an exception (PR 6 satellite)."""

    SHA = "a" * 40

    def test_outside_any_checkout_degrades(self, tmp_path):
        assert git_sha(tmp_path / "plain") == UNKNOWN_GIT_SHA

    def test_loose_ref_resolved(self, tmp_path):
        refs = tmp_path / ".git" / "refs" / "heads"
        refs.mkdir(parents=True)
        (refs / "main").write_text(self.SHA + "\n")
        (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        assert git_sha(tmp_path) == self.SHA

    def test_packed_ref_resolved(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{self.SHA} refs/heads/main\n"
        )
        assert git_sha(tmp_path) == self.SHA

    def test_detached_head_is_the_sha_itself(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text(self.SHA + "\n")
        assert git_sha(tmp_path) == self.SHA

    def test_worktree_pointer_file_followed(self, tmp_path):
        # In a linked worktree ".git" is a file: "gitdir: <real dir>".
        real = tmp_path / "real_git"
        real.mkdir()
        (real / "HEAD").write_text(self.SHA + "\n")
        worktree = tmp_path / "worktree"
        worktree.mkdir()
        (worktree / ".git").write_text("gitdir: ../real_git\n")
        assert git_sha(worktree) == self.SHA

    def test_bogus_pointer_file_degrades(self, tmp_path):
        (tmp_path / ".git").write_text("this is not a gitdir pointer\n")
        assert git_sha(tmp_path) == UNKNOWN_GIT_SHA

    def test_missing_head_degrades(self, tmp_path):
        (tmp_path / ".git").mkdir()
        assert git_sha(tmp_path) == UNKNOWN_GIT_SHA

    @pytest.mark.parametrize(
        "head", ["ref:\n", "ref: \n", "ref: refs/heads/ghost\n", ""]
    )
    def test_malformed_or_dangling_head_degrades(self, tmp_path, head):
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "HEAD").write_text(head)
        assert git_sha(tmp_path) == UNKNOWN_GIT_SHA

    def test_real_checkout_never_raises(self):
        sha = git_sha()
        assert isinstance(sha, str) and sha
