"""Smoke test of the end-to-end benchmark at a tiny input size.

Run from the repository root::

    python -m pytest e2ebench/test_smoke.py -q

It checks that every workload prints every end-to-end metric with its
unit, that the traced run prints every per-layer metric, that a
corrupted served response, a fit stage the trace misses and children
that disagree are counted as failed operations, and that the benchmark
refuses to run without the ``repro`` sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from catalog import WORKLOADS  # noqa: E402
from run import cross_checks, metric_units  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(metrics: dict, units: dict) -> None:
    assert set(metrics) == set(units)
    for name, metric in metrics.items():
        assert metric["unit"] == units[name], name
        assert np.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_end_to_end_metric(workload):
    result = result_line(
        bench("--workload", workload, "--seed", "3", "--seconds", "2",
              "--trace", "0", "--size", "tiny")
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert_metrics(result["metrics"], metric_units("end_to_end"))


def test_traced_run_reports_every_layer_metric():
    result = result_line(
        bench("--workload", "fit_long", "--seed", "3", "--seconds", "4",
              "--trace", "1", "--size", "tiny")
    )
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result["metrics"], metric_units("per_layer"))


def test_corrupted_response_is_a_failed_operation(monkeypatch):
    import workloads
    from repro.serve import InferenceService

    compute = InferenceService._compute_matrix

    def corrupt(self, X, mode):
        out = compute(self, X, mode)
        if mode == "label":  # a valid class label, just the wrong one
            return self._classes[(np.searchsorted(self._classes, out) + 1) % self._classes.size]
        return out + 1e-6

    monkeypatch.setattr(InferenceService, "_compute_matrix", corrupt)
    record = workloads.run_workload("fit_many", seed=3, seconds=2, trace=False, size="tiny")
    served = record["detail"]["serve_totals"]["completed"]
    assert record["failed"] == served > 0
    assert all(error.startswith("serve:") for error in record["errors"])


def test_unwrapped_fit_stage_is_a_failed_operation(monkeypatch):
    import tracing
    import workloads

    targets = tracing._targets

    def without_generation():
        return [t for t in targets() if t[2] != "instanceprofile.generate"]

    monkeypatch.setattr(tracing, "_targets", without_generation)
    record = workloads.run_workload("fit_long", seed=3, seconds=2, trace=True, size="tiny")
    assert record["failed"] == 1
    assert "instanceprofile.generate" in record["errors"][0]


def test_children_that_disagree_fail_a_check():
    child = {
        "detail": {"inputs_digest": "a", "labels_digest": "b"},
        "counts": {"early": 3},
    }
    assert all(ok for ok, _ in cross_checks([child, child]))
    other = {**child, "detail": {"inputs_digest": "a", "labels_digest": "c"}}
    failed = [why for ok, why in cross_checks([child, other]) if not ok]
    assert failed == ["children: the same seed gave different held-out labels"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fit_long", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no repro package" in done.stderr
