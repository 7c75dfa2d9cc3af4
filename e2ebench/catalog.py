"""What the benchmark runs: workloads, their inputs and phases.

The metric names and units live in ``BENCHMARK.json`` at the repository
root. This file is kept free of numpy and the ``repro`` package so that
``run.py`` can read it before any child interpreter starts.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Phases interleaved in a child, each with a share of its seconds.
#: ``setup`` and ``fit`` repeat the input generation and the fit, so that
#: ``setup_s`` and ``fit_s`` stand on samples spread across the run.
PHASES = ("setup", "predict", "serve", "stream", "fit")

#: Children per run, started one after another, each with an equal share
#: of ``--seconds``. A process can stay in a slow state of the host for
#: its whole life; the children's samples are pooled.
CHILDREN = 3


@dataclass(frozen=True)
class Workload:
    """Input shape and each phase's share of a child's seconds."""

    n_classes: int
    n_train: int  # training series, split evenly over the classes
    length: int
    n_test: int
    shares: tuple[float, float, float, float, float]  # in PHASES order
    amplitude: float = 2.5  # planted-pattern scale (make_planted_dataset)


#: Samples per streamed chunk on every workload: the chunk size at which
#: ``repro.benchlib.streambench`` calibrated the streaming thresholds.
STREAM_CHUNK = 16

# Every length leaves at least one chunk boundary at or past 0.7 of the
# series and before its end, so every workload can decide early.
WORKLOADS = {
    "fit_long": Workload(2, 60, 192, 1000, (0.05, 0.1, 0.225, 0.225, 0.4)),
    "fit_many": Workload(8, 560, 56, 2000, (0.04, 0.06, 0.15, 0.15, 0.6), amplitude=3.5),
}

#: Shape used by the smoke test (``--size tiny``): every phase still runs.
TINY = Workload(2, 8, 64, 40, (0.2, 0.2, 0.2, 0.2, 0.2))
