"""Append-only benchmark trajectory ledger + regression differ.

The ``BENCH_*.json`` files are *latest-state* snapshots: each run merges
its section under the machine key, so the trajectory — did yesterday's
change cost 10% of serve throughput? — is invisible. This module adds
the missing axis:

* :func:`append_history` — every perfbench / loadgen / streambench run
  appends one line to ``BENCH_history.jsonl``: commit SHA, UTC
  timestamp, machine key, benchmark kind, and that kind's *headline*
  numbers (extracted by :func:`headline_metrics` from the same record
  the BENCH file stores);
* :func:`diff_history` — per (kind, machine), compares the latest entry
  against the previous one (falling back to the committed BENCH file
  when the ledger has a single entry) and flags any metric that moved in
  its *bad* direction by more than the threshold;
* ``repro obs bench-diff`` — the CLI face: prints the delta table and
  exits non-zero on any regression, so CI can gate on the trajectory.

Metric direction is by name: latency/seconds/overhead metrics regress
when they grow, speedup/throughput/fraction/hit-rate metrics regress
when they shrink (:func:`lower_is_better`).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.exceptions import ValidationError
from repro.obs.manifest import git_sha

#: The ledger next to the BENCH_*.json files at the repository root.
HISTORY_FILENAME = "BENCH_history.jsonl"

#: Benchmark kinds the ledger understands, mapped to their BENCH file.
BENCH_FILES = {
    "kernels": "BENCH_kernels.json",
    "serve": "BENCH_serve.json",
    "streaming": "BENCH_streaming.json",
}

#: Name fragments marking a metric where *smaller* is the good direction.
_LOWER_BETTER_TOKENS = ("seconds", "latency", "overhead", "wall")


def lower_is_better(metric: str) -> bool:
    """Whether ``metric`` regresses by growing (latency-like names).

    A trailing ``_s`` (a seconds unit) also counts, but only as a
    suffix: substring matching would misread ``series_per_second`` —
    a throughput, higher is better — as latency-like.
    """
    name = metric.lower()
    if name.endswith("_s"):
        return True
    return any(token in name for token in _LOWER_BETTER_TOKENS)


def headline_metrics(kind: str, record: dict) -> dict[str, float]:
    """Extract a kind's headline numbers from one machine's record.

    ``record`` is the per-machine dict the BENCH file stores (and the
    benchmark ``main`` holds right before persisting). Missing sections
    are skipped, never raised — benches run with partial flags
    (``--obs-only``) still produce a useful line.
    """
    if kind not in BENCH_FILES:
        raise ValidationError(
            f"unknown benchmark kind {kind!r}; expected one of "
            f"{sorted(BENCH_FILES)}"
        )
    out: dict[str, float] = {}

    def grab(name: str, *path) -> None:
        node = record
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return
            node = node[key]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            out[name] = float(node)

    if kind == "kernels":
        grab("min_distance.speedup", "min_distance", "speedup")
        grab("mass.speedup", "mass", "speedup")
        grab("obs.overhead.counters", "observability", "overhead", "counters")
        grab(
            "obs.overhead.serve_telemetry",
            "observability",
            "serve",
            "overhead",
            "telemetry",
        )
        grab(
            "spectra.cross_run_hit_rate", "spectra_store", "cross_run_hit_rate"
        )
    elif kind == "serve":
        grab("steady.p50_latency_s", "steady", "p50_latency_s")
        grab("steady.p99_latency_s", "steady", "p99_latency_s")
        grab("steady.series_per_second", "steady", "series_per_second")
        grab("overload.series_per_second", "overload", "series_per_second")
    else:  # streaming
        grab("latency.p50_append_s", "latency", "p50_append_s")
        grab("latency.p99_append_s", "latency", "p99_append_s")
        grab("early.fraction", "early", "fraction")
        grab(
            "throughput.stream_over_batch_ratio",
            "throughput",
            "stream_over_batch_ratio",
        )
    return out


def append_history(
    kind: str,
    machine: str,
    record: dict,
    path: str | Path = HISTORY_FILENAME,
    timestamp: float | None = None,
) -> dict:
    """Append one trajectory line for a finished benchmark run.

    Returns the entry written. The file is append-only JSONL — never
    rewritten — so concurrent benches at worst interleave whole lines.
    """
    entry = {
        "kind": kind,
        "machine": machine,
        "git_sha": git_sha(),
        "timestamp": time.time() if timestamp is None else float(timestamp),
        "metrics": headline_metrics(kind, record),
    }
    path = Path(path)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: str | Path = HISTORY_FILENAME) -> list[dict]:
    """All well-formed ledger entries, in file (= time) order.

    Malformed lines are skipped: an interrupted append must not brick
    every future ``bench-diff``.
    """
    path = Path(path)
    if not path.exists():
        return []
    entries: list[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and isinstance(entry.get("metrics"), dict):
            entries.append(entry)
    return entries


def _bench_baseline(kind: str, machine: str, bench_dir: Path) -> dict | None:
    """Headline metrics from the committed BENCH file, if present."""
    path = bench_dir / BENCH_FILES[kind]
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    record = data.get(machine)
    if not isinstance(record, dict):
        return None
    metrics = headline_metrics(kind, record)
    return metrics or None


def diff_history(
    entries: list[dict],
    *,
    machine: str,
    threshold: float = 0.25,
    kinds: tuple[str, ...] | None = None,
    bench_dir: str | Path = ".",
) -> list[dict]:
    """Per-metric deltas of each kind's latest run vs its baseline.

    The baseline is the previous ledger entry of the same (kind,
    machine); a kind with a single entry falls back to the committed
    BENCH file (so a fresh clone's first run still diffs against the
    repository's committed numbers). Returns one row per comparable
    metric::

        {kind, metric, baseline, current, change, direction, regression}

    ``change`` is the signed relative move; ``regression`` is True when
    the move exceeds ``threshold`` in the metric's bad direction.
    """
    if threshold <= 0:
        raise ValidationError("threshold must be > 0")
    bench_dir = Path(bench_dir)
    rows: list[dict] = []
    for kind in kinds or tuple(sorted(BENCH_FILES)):
        mine = [
            entry
            for entry in entries
            if entry.get("kind") == kind and entry.get("machine") == machine
        ]
        if not mine:
            continue
        current = mine[-1]["metrics"]
        if len(mine) >= 2:
            baseline = mine[-2]["metrics"]
            baseline_src = "history"
        else:
            baseline = _bench_baseline(kind, machine, bench_dir)
            baseline_src = "bench-file"
            if baseline is None:
                continue
        for metric in sorted(set(current) & set(baseline)):
            base, cur = baseline[metric], current[metric]
            if base == 0:
                change = 0.0 if cur == 0 else float("inf")
            else:
                change = (cur - base) / abs(base)
            lower = lower_is_better(metric)
            bad_move = change if lower else -change
            rows.append(
                {
                    "kind": kind,
                    "metric": metric,
                    "baseline": base,
                    "current": cur,
                    "change": change,
                    "direction": "lower" if lower else "higher",
                    "baseline_source": baseline_src,
                    "regression": bad_move > threshold,
                }
            )
    return rows


def render_bench_diff(rows: list[dict], threshold: float) -> str:
    """Human-readable delta table (the ``repro obs bench-diff`` output)."""
    from repro.benchlib.tables import format_table

    if not rows:
        return (
            "bench-diff: no comparable runs in the ledger "
            f"({HISTORY_FILENAME}); run a benchmark first"
        )
    table_rows = [
        [
            row["kind"],
            row["metric"],
            f"{row['baseline']:.6g}",
            f"{row['current']:.6g}",
            f"{row['change']:+.1%}",
            row["direction"],
            "REGRESSION" if row["regression"] else "ok",
        ]
        for row in rows
    ]
    out = format_table(
        ["kind", "metric", "baseline", "current", "change", "better", "verdict"],
        table_rows,
        title=f"bench-diff (threshold {threshold:.0%})",
    )
    n_bad = sum(1 for row in rows if row["regression"])
    verdict = (
        f"{n_bad} regression(s) beyond the {threshold:.0%} threshold"
        if n_bad
        else f"no regressions beyond the {threshold:.0%} threshold"
    )
    return f"{out}\n{verdict}"


__all__ = [
    "BENCH_FILES",
    "HISTORY_FILENAME",
    "append_history",
    "diff_history",
    "headline_metrics",
    "load_history",
    "lower_is_better",
    "render_bench_diff",
]
