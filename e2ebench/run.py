"""End-to-end benchmark of the IPS reproduction: one command, every metric.

Run from the repository root::

    python3 e2ebench/run.py --workload fit_long --seed 1 --seconds 42 --trace 0

Workloads: ``fit_long``, ``fit_many``, ``online`` (see
``e2ebench/README.md``). The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; each metric is
``{"value", "unit"}``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` they are the per-layer ones, from a traced run
compared with an untraced run of the same inputs. The metric names and
units are those ``BENCHMARK.json`` lists. Detail lines (host speed,
thread settings, kernel backend, counts) come before it.

A run of ``--trace 0`` is ``CHILDREN`` fresh interpreters
(``workloads.py``), one after another, each with an equal share of
``--seconds`` and its BLAS thread pools pinned to one thread before
numpy is imported. Their raw samples are pooled and summarised here.
Without the repository's ``src/repro`` package next to this directory
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Wall-clock limit of the whole command, shared by its children.
TIME_LIMIT_S = 170.0

#: The traced child's slowdown on this rate is ``trace.overhead_fraction``.
#: Streaming records the most spans per second, and its bursts take their
#: slowdown from loops inside them in both children alike; traced fits do
#: not (see workloads.Run).
OVERHEAD_METRIC = "stream_samples_per_s"
#: Summary values printed on a detail line, not in the result.
DIAGNOSTICS = (
    "wall_medians", "slowdown_median", "samples", "request_p99_ms", "append_p99_ms",
    "stream_accuracy",
)

sys.path.insert(0, str(HERE))
from catalog import CHILDREN, WORKLOADS  # noqa: E402


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_child(args, seconds: float, trace: bool, deadline: float, part: int = 0) -> dict:
    """Child ``part`` of the run in a fresh interpreter; returns its record."""
    env = dict(os.environ)
    env.update({key: "1" for key in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", "1" if trace else "0",
        "--size", args.size,
        "--part", str(part),
    ]
    # subprocess.run kills and reaps the child when the timeout expires.
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload child exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1])


def host_normalized(samples: list, rate: bool = False, column: int = 0) -> float:
    """Median over steps of a value divided by the step's slowdown (the
    last column), or multiplied by it for a rate."""
    return statistics.median(
        step[column] * step[-1] if rate else step[column] / step[-1] for step in samples
    )


def summarize(records: list) -> dict:
    """End-to-end metrics from the children's pooled samples, plus the
    raw wall-time medians and the tail diagnostics; see README.md."""
    pooled = {
        key: [value for record in records for value in record["samples"][key]]
        for key in records[0]["samples"]
    }
    counts = {
        key: sum(record["counts"][key] for record in records) for key in records[0]["counts"]
    }
    n_test = records[0]["counts"]["held_out"]
    m = {
        "setup_s": host_normalized(pooled["setup"]),
        "peak_rss_mb": max(record["peak_rss_mb"] for record in records),
        "fit_s": host_normalized(pooled["fit"]),
        "predict_series_per_s": n_test / host_normalized(pooled["predict"]),
        "serve_series_per_s": host_normalized(pooled["serve"], rate=True),
        "request_p50_ms": host_normalized(pooled["serve"], column=1) * 1e3,
        "stream_samples_per_s": host_normalized(pooled["stream"], rate=True),
        "append_p50_ms": host_normalized(pooled["stream"], column=1) * 1e3,
        "accuracy": counts["held_out_correct"] / counts["held_out"],
        "early_fraction": counts["early"] / counts["decisions"],
        "earliness": counts["early_seen_sum"] / counts["early"] if counts["early"] else 1.0,
    }
    m["wall_medians"] = {
        name: statistics.median(step[column] for step in pooled[phase])
        for name, phase, column in (
            ("setup_s", "setup", 0),
            ("fit_s", "fit", 0),
            ("predict_pass_s", "predict", 0),
            ("serve_per_s", "serve", 0),
            ("request_p50_s", "serve", 1),
            ("stream_per_s", "stream", 0),
            ("append_p50_s", "stream", 1),
        )
    }
    m["stream_accuracy"] = counts["decisions_correct"] / counts["decisions"]
    m["slowdown_median"] = statistics.median(
        step[-1] for key in ("setup", "fit", "predict", "serve", "stream") for step in pooled[key]
    )
    m["samples"] = {key: len(values) for key, values in pooled.items()}
    m["request_p99_ms"] = percentile(pooled["request_s"], 99) * 1e3
    m["append_p99_ms"] = percentile(pooled["append_s"], 99) * 1e3
    return m


def cross_checks(records: list) -> list[tuple[bool, str]]:
    """Checks over the children, as ``(ok, why)``: the same seed must give
    the same inputs and the same fitted labels in every process, and some
    stream must decide early (else earliness is undefined)."""
    checks = [
        (
            len({record["detail"][key] for record in records}) == 1,
            f"children: the same seed gave different {what}",
        )
        for key, what in (("inputs_digest", "inputs"), ("labels_digest", "held-out labels"))
    ]
    checks.append((
        sum(record["counts"]["early"] for record in records) > 0,
        "stream: no decision latched early; earliness is undefined",
    ))
    return checks


def pick(values: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the smoke test's minimal inputs",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.trace:
        # An untraced and a traced child, each with half of the seconds.
        half = args.seconds / 2.0
        untraced = run_child(args, half, False, deadline)
        traced = run_child(args, half, True, deadline)
        runs = [untraced, traced]
        before = summarize([untraced])
        values = dict(traced["layers"])
        values["trace.overhead_fraction"] = (
            before[OVERHEAD_METRIC] / summarize([traced])[OVERHEAD_METRIC] - 1.0
        )
        # Tail latencies are diagnostics, measured untraced (see README.md).
        values["serve.request_p99_ms"] = before["request_p99_ms"]
        values["streaming.append_p99_ms"] = before["append_p99_ms"]
        metrics = pick(values, metric_units("per_layer"))
    else:
        share = args.seconds / CHILDREN
        runs = [run_child(args, share, False, deadline, part) for part in range(CHILDREN)]
        summary = summarize(runs)
        print(json.dumps({key: summary[key] for key in DIAGNOSTICS}))
        metrics = pick(summary, metric_units("end_to_end"))

    checks = cross_checks(runs)
    for record in runs:
        print(json.dumps({"detail": record["detail"], "environment": record["environment"]}))
    errors = [why for record in runs for why in record["errors"]]
    for error in errors + [why for ok, why in checks if not ok]:
        print(f"failed: {error}")
    attempted = sum(record["attempted"] for record in runs) + len(checks)
    failed = sum(record["failed"] for record in runs) + sum(not ok for ok, _ in checks)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
