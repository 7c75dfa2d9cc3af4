"""One part of one benchmark run, in a fresh interpreter.

``run.py`` starts this file ``CHILDREN`` times per run, one child after
another, each with its share of ``--seconds`` and with the BLAS thread
pools pinned to one thread, so nothing from an earlier child
(``ru_maxrss``, ``global_metrics()``, warm ``SeriesCache`` objects, loader
caches) leaks into the next. A child prints one JSON record of raw
samples on its last line; ``run.py`` pools the samples of all children
and summarises them.

Every workload runs the same user journey on its own inputs:

1. **setup** -- generate the inputs (``make_inputs``), again at times
   spread over the child (every repeat must give the same inputs);
2. **fit** -- ``IPSClassifier(IPSConfig()).fit_dataset`` on the fixed
   training resample, again in refits spread over the child (every refit
   must predict the same labels);
3. **predict** -- batched ``IPSClassifier.predict`` passes over the
   held-out matrix (every pass must equal the first fit's labels);
4. **serve** -- bursts of a closed loop of single-series requests through
   ``InferenceService(ServeConfig())`` with ``SERVE_WINDOW`` requests
   outstanding, modes 3:1 ``label``:``proba`` (every response is checked
   against offline ``predict``/``predict_proba`` on the same row);
5. **stream** -- bursts of held-out series replayed in chunks of
   ``STREAM_CHUNK`` samples, round-robin over ``STREAM_SESSIONS``
   interleaved sessions of a ``StreamingInferenceService`` at the
   calibrated thresholds (every decision made on the full series must
   equal batch ``predict``).

The workload fixes the input shape and how the child's seconds are
shared between the phases; see ``README.md`` for why each one was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro import IPSClassifier, IPSConfig
from repro.datasets.generators import make_planted_dataset
from repro.obs.metrics import MetricsRegistry
from repro.serve import InferenceService, StreamConfig, StreamingInferenceService

from catalog import CHILDREN, PHASES, STREAM_CHUNK, TINY, WORKLOADS, Workload
from tracing import NullRecorder, SpanRecorder, instrument

#: Seed of the fixed training resample and held-out pool of every workload.
RESAMPLE_SEED = 2022
#: The held-out pool holds this many times ``n_test`` series.
HELD_OUT_POOL = 2
SERVE_WINDOW = 4
SERVE_POOL = 512
SERVE_NOISE = 0.05
PROBA_SHARE = 0.25
SERVE_WARMUP = 64
STREAM_SESSIONS = 8
#: Served probabilities are compared with offline ``predict_proba`` on the
#: whole request pool. ``LinearSVM.decision_function`` is one BLAS
#: matrix-vector product whose rounding depends on how many rows it gets
#: (a one-row microbatch differs from a pool-sized matrix in the last
#: bits), so probability rows must agree to 64 ulp of float64; labels must
#: be identical. Rows that are not bit-identical are counted in the
#: ``proba_not_bit_identical`` detail.
PROBA_TOLERANCE = 64 * np.finfo(np.float64).eps
MARGIN_THRESHOLD = 2.5
MIN_FRACTION = 0.7
#: Time of ``calibration_loop_ms()`` that counts as slowdown 1: about its
#: median on a two-vCPU 2.1 GHz Xeon host shared with other tenants.
CALIBRATION_NOMINAL_MS = 1.3
#: Wall-time periods of the calibration loops run inside a fit and inside
#: a serve or stream burst, and the fewest such loops a step needs for its
#: slowdown to come from them.
FIT_SAMPLE_PERIOD_S = 0.1
BURST_SAMPLE_PERIOD_S = 0.02
MIN_IN_STEP_SAMPLES = 5
#: Length of one serving or streaming burst.
BURST_S = 0.2
#: Fewest samples of each phase in one child.
MIN_STEPS = {"setup": 3, "predict": 5, "serve": 5, "stream": 5, "fit": 1}
#: Fewest timed requests and classifier-running appends in one child, so
#: that a run of ``CHILDREN`` children has ten samples beyond each p99.
MIN_LATENCY_SAMPLES = 400

#: Span name -> fit stage. Every fit must record each of them;
#: ``core.unattributed_s`` is ``fit_s`` minus their self times.
FIT_STAGES = {
    "validation": "validation.self_s",
    "instanceprofile.generate": "instanceprofile.generate_s",
    "filters.dabf_build": "filters.dabf_build_s",
    "filters.dabf_prune": "filters.dabf_prune_s",
    "core.selection": "core.selection_s",
    "core.transform": "core.transform_fit_s",
    "classify": "classify.fit_s",
}
#: Largest share of ``fit_s`` the stage spans may leave unattributed. The
#: pipeline glue between the stages takes well under 0.1%; a stage the
#: wrappers stop catching leaves far more.
MAX_UNATTRIBUTED_SHARE = 0.02

#: The values of one step of each phase, in the order it records them.
SAMPLE_COLUMNS = {
    "setup": ("seconds", "slowdown"),
    "fit": ("seconds", "slowdown"),
    "predict": ("seconds", "slowdown"),
    "serve": ("requests_per_s", "median_latency_s", "slowdown"),
    "stream": ("samples_per_s", "median_append_s", "slowdown"),
}


class Tally:
    """Operations attempted and failed; a failed check is a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool = True, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(why)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def digest(*arrays) -> str:
    """Hash of the arrays' bytes, to compare outputs across children."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


_CALIBRATION_RNG = np.random.default_rng(0)
#: Inputs of the calibration loop: an FFT frame, two short vectors, and an
#: 8 MiB array with gather indices.
_FRAME = _CALIBRATION_RNG.standard_normal(4096)
_SHORT = _CALIBRATION_RNG.standard_normal((2, 16))
_LARGE = _CALIBRATION_RNG.standard_normal(1 << 20)
_GATHER = _CALIBRATION_RNG.integers(0, 1 << 20, 25_000)


def calibration_loop_ms() -> float:
    """One run of a fixed loop of about 1.5 ms that runs no repository code.

    Its four parts slow down with the host in different ways, as the
    benchmark's phases do: integer arithmetic in the interpreter plus
    numpy FFTs, dict and string churn, short-array numpy calls (per-call
    overhead) and a random gather over 8 MiB (memory latency). Together
    they tracked the serve, stream and predict times of both workloads
    more closely than the first part alone (see README.md).
    """
    start = time.perf_counter()
    acc = 0
    for i in range(3_500):
        acc += i * i
    for _ in range(4):
        np.fft.irfft(np.fft.rfft(_FRAME))
    table = {i: (i, str(i)) for i in range(750)}
    acc += sum(len(text) for _, text in table.values())
    a, b = _SHORT
    for _ in range(75):
        acc += float((a * 2.0 + b).sum())
    acc += float(_LARGE[_GATHER].sum())
    return (time.perf_counter() - start) * 1e3


def calibration_ms() -> float:
    """Median of five calibration loops."""
    return statistics.median(calibration_loop_ms() for _ in range(5))


class Speedometer:
    """Calibration loops run inside one step, at most every ``period`` s.

    The loops on either side of a step see the host's speed only at its
    ends, and the speed moves within a 0.2 s burst and within a fit. A
    burst runs a loop between its own calls whenever one is ``due``; a
    fit runs them from a ``SIGALRM`` handler (:meth:`alarm`) in the main
    thread, between the fit's own bytecodes. The loops' time is kept in
    ``spent`` and taken off the step's time.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.period

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_loop_ms())
        self.last = time.perf_counter()
        self.spent += self.last - start

    def slowdown(self) -> list:
        """``[slowdown]`` from the loops, or ``[]`` if they were too few."""
        if len(self.samples) < MIN_IN_STEP_SAMPLES:
            return []
        return [statistics.fmean(self.samples) / CALIBRATION_NOMINAL_MS]

    @contextmanager
    def alarm(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def make_inputs(spec: Workload, seed: int) -> dict:
    """Training resample, held-out set and the served request pool.

    The training resample and the held-out pool are fixed per workload;
    ``seed`` draws the held-out set from the pool, the request pool and
    its modes, and so the stream order. Models fitted on seed-dependent
    training data differed in predict cost by 2.5x from seed to seed,
    because a model of 10 to 40 shapelets costs what its selected
    shapelet lengths cost; with a fixed resample (the protocol of Bagnall
    et al.) a run-to-run difference is the code's or the host's.
    """
    data = make_planted_dataset(
        spec.n_classes,
        spec.n_train + HELD_OUT_POOL * spec.n_test,
        spec.length,
        amplitude=spec.amplitude,
        seed=RESAMPLE_SEED,
        name="e2ebench",
    )
    per_class = spec.n_train // spec.n_classes
    train_rows = np.sort(
        np.concatenate([np.flatnonzero(data.y == c)[:per_class] for c in range(spec.n_classes)])
    )
    held_out = np.setdiff1d(np.arange(data.n_series), train_rows)
    rng = np.random.default_rng(seed)
    test_rows = rng.choice(held_out, spec.n_test, replace=False)
    X_test = data.X[test_rows]
    pool_rows = rng.choice(spec.n_test, SERVE_POOL)
    return {
        "train": data.subset(train_rows),
        "X_test": X_test,
        "y_test": data.classes_[data.y[test_rows]],
        "pool": X_test[pool_rows] + rng.normal(0.0, SERVE_NOISE, (SERVE_POOL, spec.length)),
        # Exactly PROBA_SHARE of the pool, in seeded order: a share drawn
        # row by row moved the serve rate by up to 14% between seeds.
        "pool_proba": rng.permutation(SERVE_POOL) < round(PROBA_SHARE * SERVE_POOL),
    }


def inputs_digest(inputs: dict) -> str:
    train = inputs["train"]
    return digest(train.X, train.y, *(inputs[k] for k in ("X_test", "y_test", "pool", "pool_proba")))


class Run:
    """State and raw samples of one child.

    Setup and the first fit come first; then setups, predict passes,
    serve and stream bursts and refits are interleaved: the scheduler
    always steps the phase that has used the smallest share of its time
    budget. The first setup and the first fit count towards their
    phase's budget. A serve or stream step is a burst of ``BURST_S``
    seconds on a service started for that burst.

    Each step's sample ends with the step's *slowdown*, a calibration
    time over ``CALIBRATION_NOMINAL_MS``: the mean of the loops a
    ``Speedometer`` ran inside the step when there are at least
    ``MIN_IN_STEP_SAMPLES`` (fits and bursts), else the mean of the
    calibrations before and after it. The host's speed swings by tens of
    percent over seconds and minutes, and the steps and the loop slow
    down together; ``run.py`` divides times (and multiplies rates) by
    the slowdown.
    """

    def __init__(self, name: str, spec: Workload, seed: int, seconds: float, recorder,
                 part: int = 0) -> None:
        self.name = name
        self.spec = spec
        self.seed = seed
        self.budgets = dict(zip(PHASES, (share * seconds for share in spec.shares)))
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.rec = recorder
        self.registry = MetricsRegistry() if isinstance(recorder, SpanRecorder) else None
        if self.registry is not None:
            # Exact quantiles need every sample, not the default window.
            self.registry.window("serve.admission_wait_seconds", capacity=1 << 18)
        self.tally = Tally()
        self.detail: dict = {"workload": name, "seed": seed}
        # Raw samples, pooled over the children by run.py: one row of
        # SAMPLE_COLUMNS per step, and every timed latency.
        self.samples: dict[str, list] = {phase: [] for phase in SAMPLE_COLUMNS}
        self.samples.update(request_s=[], append_s=[])
        self.calibrations: list[float] = []
        # A signal handler inside the stage spans would add to their self
        # time, so traced fits take their slowdown from either side.
        self.sample_fits = not isinstance(recorder, SpanRecorder)
        self.max_threads = 0  # threads alive at any calibration
        self.serve_totals = {"completed": 0, "batches": 0}
        # Each child of a run starts its requests and streams at its own
        # offset, so that the run covers more of the held-out set.
        self.next_request = part * SERVE_POOL // CHILDREN
        self.proba_inexact = 0
        self.next_row = part * spec.n_test // CHILDREN
        self.appends = 0
        self.decisions: list = []  # (row, final decision)

    def steps(self, phase: str) -> int:
        return len(self.samples[phase])

    def fit_times(self) -> list[float]:
        return [seconds for seconds, _ in self.samples["fit"]]

    # -- setup and fits ----------------------------------------------------

    def step_setup(self) -> list:
        start = time.perf_counter()
        inputs = make_inputs(self.spec, self.seed)
        elapsed = time.perf_counter() - start
        if not hasattr(self, "inputs"):
            self.inputs = inputs
            self.detail["inputs_digest"] = inputs_digest(inputs)
        else:
            self.tally.op(
                inputs_digest(inputs) == self.detail["inputs_digest"],
                "setup: the same seed gave different inputs",
            )
        return [elapsed]

    def step_fit(self) -> list:
        """Fit; the first fit is the served model, a refit must predict
        the same labels as the first. Returns the fit's time and, if the
        in-step loops ran often enough, its slowdown."""
        meter = Speedometer(FIT_SAMPLE_PERIOD_S)
        sampling = meter.alarm() if self.sample_fits else nullcontext()
        with self.rec.span("fit", request_id=f"fit-{self.steps('fit')}"), sampling:
            start = time.perf_counter()
            classifier = IPSClassifier(IPSConfig()).fit_dataset(self.inputs["train"])
            elapsed = time.perf_counter() - start - meter.spent
        backend = classifier.discovery_result_.extra["kernel_backend"]
        self.tally.op(
            backend != "sharded",
            "fit: the sharded backend's process pool would oversubscribe the host",
        )
        self.detail.setdefault("kernel_backend", []).append(backend)
        self.rec.phase = "check"  # kept out of the fit and predict stages
        if not hasattr(self, "classifier"):
            self.classifier = classifier
            self.labels = classifier.predict(self.inputs["X_test"])
        else:
            self.tally.op(
                np.array_equal(classifier.predict(self.inputs["X_test"]), self.labels),
                "fit: a refit of the same training set predicts differently",
            )
        return [elapsed] + meter.slowdown()

    # -- scheduling ------------------------------------------------------

    def _done(self, phase: str) -> bool:
        if self.spent[phase] < self.budgets[phase] or self.steps(phase) < MIN_STEPS[phase]:
            return False
        if phase in ("serve", "stream"):
            timed = self.samples["request_s" if phase == "serve" else "append_s"]
            return len(timed) >= MIN_LATENCY_SAMPLES
        return True

    def calibrate(self) -> float:
        # A thread left running (a service that did not stop its worker)
        # would slow the loop and so hide its own cost; see _finish.
        self.max_threads = max(self.max_threads, threading.active_count())
        self.calibrations.append(calibration_ms())
        return self.calibrations[-1]

    def step(self, phase: str) -> None:
        """One step of ``phase``, then a calibration after it."""
        self.rec.phase = phase
        start = time.perf_counter()
        values = getattr(self, f"step_{phase}")()
        self.spent[phase] += time.perf_counter() - start
        before = self.calibrations[-1]
        slowdown = (before + self.calibrate()) / 2.0 / CALIBRATION_NOMINAL_MS
        if len(values) < len(SAMPLE_COLUMNS[phase]):  # no slowdown from inside
            values.append(slowdown)
        self.samples[phase].append(values)

    def run(self) -> None:
        self.calibrate()
        self.step("setup")
        self.step("fit")
        self.rec.phase = "warmup"
        pool = self.inputs["pool"]
        self.pool_label = self.classifier.predict(pool)
        self.pool_proba = self.classifier.predict_proba(pool)
        self.detail["labels_digest"] = digest(self.labels)
        self._serve_burst(warmup=SERVE_WARMUP)
        self.calibrate()
        while True:
            todo = [phase for phase in PHASES if not self._done(phase)]
            if not todo:
                break
            self.step(min(todo, key=lambda p: self.spent[p] / self.budgets[p]))
        self._finish()

    # -- phases ----------------------------------------------------------

    def step_predict(self) -> list:
        with self.rec.span("predict", request_id=f"predict-{self.steps('predict')}"):
            start = time.perf_counter()
            labels = self.classifier.predict(self.inputs["X_test"])
            elapsed = time.perf_counter() - start
        self.tally.op(
            np.array_equal(labels, self.labels),
            "predict: a pass differs from the reference labels",
        )
        return [elapsed]

    def step_serve(self) -> list:
        meter = Speedometer(BURST_SAMPLE_PERIOD_S)
        start = time.perf_counter()
        latencies = self._serve_burst(seconds=BURST_S, meter=meter)
        rate = len(latencies) / (time.perf_counter() - start - meter.spent)
        self.samples["request_s"].extend(latencies)
        return [rate, statistics.median(latencies)] + meter.slowdown()

    def _serve_burst(self, seconds: float = 0.0, warmup: int = 0, meter=None) -> list[float]:
        """Closed loop for ``seconds`` (or ``warmup`` untimed requests) on
        a fresh service, then drain; returns the completed requests'
        latencies. When ``meter`` is due, the window drains and the
        calibration loop runs with no request in flight, so it delays
        no timed request."""
        pool, pool_proba = self.inputs["pool"], self.inputs["pool_proba"]
        pending: list = []
        latencies: list[float] = []
        sent = 0
        with InferenceService(self.classifier, metrics=self.registry) as service:
            start = time.perf_counter()
            while True:
                if meter is not None and not pending and meter.due():
                    meter.sample()
                more = sent < warmup if warmup else time.perf_counter() - start < seconds
                draining = meter is not None and meter.due()
                while more and not draining and len(pending) < SERVE_WINDOW:
                    index = self.next_request % SERVE_POOL
                    mode = "proba" if pool_proba[index] else "label"
                    self.rec.request_id = f"request-{self.next_request}"
                    self.next_request += 1
                    sent += 1
                    t0 = time.perf_counter()
                    try:
                        future = service.submit(pool[index], mode=mode)
                    except Exception as exc:  # noqa: BLE001 - a refusal is a failed op
                        self.tally.op(False, f"serve: submit raised {exc!r}")
                        continue
                    pending.append((t0, index, mode, future))
                if not pending:
                    if more:  # drained for a calibration loop
                        continue
                    break
                t0, index, mode, future = pending.pop(0)
                try:
                    value = future.result(timeout=60)
                except Exception as exc:  # noqa: BLE001 - typed ServeError or worse
                    self.tally.op(False, f"serve: request raised {exc!r}")
                    continue
                latencies.append(time.perf_counter() - t0)
                self._check_response(index, mode, value)
            stats = service.stats()
        for key in self.serve_totals:
            self.serve_totals[key] += stats[key]
        return latencies

    def _check_response(self, index: int, mode: str, value) -> None:
        if mode == "label":
            ok = value == self.pool_label[index]
        else:
            value, want = np.asarray(value), self.pool_proba[index]
            ok = np.allclose(value, want, rtol=PROBA_TOLERANCE, atol=PROBA_TOLERANCE)
            self.proba_inexact += not np.array_equal(value, want)
        self.tally.op(bool(ok), f"serve: {mode} response differs from offline")

    def step_stream(self) -> list:
        """Stream for ``BURST_S`` seconds on a fresh service, then finish
        the sessions still open.

        Only the appends after which the classifier ran are timed: the
        earlier ones, before the longest shapelet fits, only extend the
        rolling statistics. They are several times cheaper and about half
        of all appends, so a median over both would sit between the two
        groups and jump from one to the other from run to run. The
        calibration loop runs between rounds over the sessions.
        """
        meter = Speedometer(BURST_SAMPLE_PERIOD_S)
        X, length = self.inputs["X_test"], self.spec.length
        config = StreamConfig(margin_threshold=MARGIN_THRESHOLD, min_fraction=MIN_FRACTION)
        # [service session id, row, samples fed, run-unique trace id]
        sessions: list[list] = []
        timed: list[float] = []
        samples = 0
        with StreamingInferenceService(
            self.classifier, stream_config=config, metrics=self.registry
        ) as streamer:
            start = time.perf_counter()
            while True:
                while time.perf_counter() - start < BURST_S and len(sessions) < STREAM_SESSIONS:
                    row = self.next_row % X.shape[0]
                    trace_id = self.rec.request_id = f"session-{self.next_row}"
                    self.next_row += 1
                    try:
                        sessions.append([streamer.open_stream(), row, 0, trace_id])
                    except Exception as exc:  # noqa: BLE001
                        self.tally.op(False, f"stream: open_stream raised {exc!r}")
                if not sessions:
                    break
                for session in list(sessions):
                    session_id, row, fed, self.rec.request_id = session
                    piece = X[row, fed : fed + STREAM_CHUNK]
                    try:
                        t0 = time.perf_counter()
                        decision = streamer.submit_chunk(session_id, piece)
                        elapsed = time.perf_counter() - t0
                        self.appends += 1
                        if decision.label is not None:  # the classifier ran
                            timed.append(elapsed)
                        session[2] = fed = fed + piece.size
                        samples += piece.size
                        if decision.final or fed >= length:
                            decision = streamer.close_stream(session_id)
                    except Exception as exc:  # noqa: BLE001
                        self.tally.op(False, f"stream: session raised {exc!r}")
                        sessions.remove(session)
                        continue
                    if decision.final:
                        sessions.remove(session)
                        self._check_decision(row, decision)
                if meter.due():
                    meter.sample()
            rate = samples / (time.perf_counter() - start - meter.spent)
        self.samples["append_s"].extend(timed)
        return [rate, statistics.median(timed)] + meter.slowdown()

    def _check_decision(self, row: int, decision) -> None:
        # Early labels may legitimately differ from the full-series label;
        # they are scored only through accuracy.
        self.decisions.append((row, decision))
        full = decision.t_emitted >= self.spec.length
        self.tally.op(
            not full or decision.label == self.labels[row],
            "stream: end-of-stream label differs from batch predict",
        )

    def _finish(self) -> None:
        self.tally.op(
            self.max_threads == 1,
            f"calibration: {self.max_threads} threads were alive; the services "
            "must stop their workers when closed",
        )
        y, length = self.inputs["y_test"], self.spec.length
        early = [
            d.t_emitted / length for _, d in self.decisions if d.early and d.t_emitted < length
        ]
        self.counts = {
            "held_out": int(len(y)),
            "held_out_correct": int(np.sum(self.labels == y)),
            "decisions": len(self.decisions),
            "decisions_correct": int(sum(d.label == y[row] for row, d in self.decisions)),
            "early": len(early),
            "early_seen_sum": float(sum(early)),
        }
        result = self.classifier.discovery_result_
        self.detail.update(
            n_candidates=result.n_candidates_generated,
            n_candidates_kept=result.n_candidates_after_pruning,
            perf=result.extra.get("perf", {}),
            appends_all=self.appends,
            proba_not_bit_identical=self.proba_inexact,
            serve_totals=self.serve_totals,
            phase_seconds=self.spent,
        )

    # -- per-layer metrics from the trace ---------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.rec.spans
        own = self.rec.self_times()
        out: dict[str, float] = {}

        def total(phase, names, roots_only=False):
            return sum(
                (s.end - s.start) if roots_only else own[i]
                for i, s in enumerate(spans)
                if s.phase == phase
                and s.name in names
                and (not roots_only or s.parent is None)
            )

        # Stage accounting against the measured fit times. Each fit must
        # record every stage, and the stages must cover all but a sliver of
        # fit_s: a stage the wrappers miss moves its time into the
        # unattributed share and fails the check.
        fit_times = self.fit_times()
        fit_total, fits = sum(fit_times), len(fit_times)
        stage_sum = 0.0
        for span_name, metric in FIT_STAGES.items():
            value = total("fit", {span_name})
            out[metric] = value / fits
            stage_sum += value
        out["core.unattributed_s"] = (fit_total - stage_sum) / fits
        share = (fit_total - stage_sum) / fit_total
        self.detail["fit_unattributed_share"] = share
        seen = {f"fit-{k}": set() for k in range(fits)}
        stray = []
        for s in spans:
            if s.phase != "fit" or (s.name == "fit" and s.parent is None):
                continue
            if s.name in FIT_STAGES and s.request_id in seen:
                seen[s.request_id].add(s.name)
            else:
                stray.append(s.name)
        missing = sorted({name for names in seen.values() for name in FIT_STAGES.keys() - names})
        self.tally.op(
            not stray and not missing and 0.0 <= share <= MAX_UNATTRIBUTED_SHARE,
            f"trace: fit stages do not reconcile with fit_s (unattributed share {share:.4f}, "
            f"stages missing {missing}, stray spans {stray[:3]})",
        )

        result = self.classifier.discovery_result_
        out["instanceprofile.candidates"] = float(result.n_candidates_generated)
        out["filters.kept_ratio"] = (
            result.n_candidates_after_pruning / result.n_candidates_generated
        )
        perf = result.extra.get("perf", {})
        out["kernels.kernel_calls"] = float(perf.get("kernel_calls", 0))
        out["kernels.fft_count"] = float(perf.get("fft_count", 0))
        out["kernels.cache_hit_rate"] = float(perf.get("cache_hit_rate", 0.0))

        passes = self.steps("predict")
        out["core.transform_predict_s"] = total("predict", {"core.transform"}) / passes
        out["classify.predict_s"] = total("predict", {"classify"}) / passes

        submits = [
            s.end - s.start for s in spans if s.phase == "serve" and s.name == "serve.submit"
        ]
        out["serve.submit_p50_ms"] = percentile(submits, 50) * 1e3
        waits = self.registry.window("serve.admission_wait_seconds").values()
        out["serve.queue_wait_p50_ms"] = percentile(waits, 50) * 1e3
        out["serve.queue_wait_p99_ms"] = percentile(waits, 99) * 1e3
        out["serve.batch_size_mean"] = (
            self.serve_totals["completed"] / self.serve_totals["batches"]
        )
        timed = len(self.samples["request_s"])
        out["serve.kernel_s"] = total("serve", {"core.transform"}) / timed
        out["serve.classify_s"] = total("serve", {"classify"}) / timed
        busy = total("serve", {"core.transform", "classify"}, roots_only=True)
        out["serve.worker_busy_fraction"] = busy / self.spent["serve"]

        appends = self.appends
        sessions = len(self.decisions)
        out["streaming.transform_append_s"] = (
            total("stream", {"streaming.transform_append"}) / appends
        )
        out["streaming.evaluate_s"] = total("stream", {"classify"}) / appends
        out["streaming.session_s"] = total("stream", {"streaming.session"}) / sessions
        counters = self.registry.snapshot()["counters"]
        out["streaming.appends"] = counters.get("streaming.appends", 0) / sessions
        out["streaming.early_emits"] = counters.get("streaming.early_emits", 0) / sessions
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 part: int = 0) -> dict:
    """Run child ``part`` of a workload; returns its record."""
    spec = TINY if size == "tiny" else WORKLOADS[name]
    recorder = SpanRecorder() if trace else NullRecorder()
    run = Run(name, spec, seed, seconds, recorder, part)
    if trace:
        with instrument(recorder):
            run.run()
    else:
        run.run()
    host = statistics.median(run.calibrations)
    run.detail["calibration_ms"] = {
        "median": host, "min": min(run.calibrations), "max": max(run.calibrations),
    }
    record = {
        "samples": run.samples,
        "counts": run.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "detail": run.detail,
    }
    if trace:
        record["layers"] = run.layer_metrics()
        record["layers"]["host.ref_loop_ms"] = host
        out_dir = Path(".bench_out")
        out_dir.mkdir(exist_ok=True)
        recorder.write_jsonl(out_dir / f"trace-{name}-seed{seed}.jsonl")
    record.update(
        attempted=run.tally.attempted, failed=run.tally.failed, errors=run.tally.errors
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--part", type=int, default=0, help="index of the child in its run")
    args = parser.parse_args(argv)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.part
    )
    record["environment"] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    print(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
