"""Kernel micro-benchmark behind ``make verify-perf`` and ``verify-obs``.

Times the batched kernel engine against the equivalent scalar loops on a
fixed synthetic workload (default: 100 queries x 50 series, the
acceptance workload of the kernels redesign), verifies the two paths
agree bit-for-bit, and persists the result to ``BENCH_kernels.json`` at
the repository root, keyed by a machine fingerprint so runs from
different machines coexist.

The process exits non-zero when the batched path fails to beat the
scalar path — the engine's whole reason to exist — making the target a
regression gate, not just a report.

A persistent :class:`~repro.kernels.SpectraStore` is then exercised
across two cold caches of the same workload, gated on a cross-run disk
hit rate > 0. Results land in the ``"spectra_store"`` section of
``BENCH_kernels.json``.

With ``--obs-only`` the observability-overhead benchmark runs instead
(``make verify-obs``): full ``IPS.discover`` runs are timed in the
``"off"``, ``"counters"``, and ``"trace"`` modes, interleaved best-of-N,
and the counters-mode overhead is gated at <=2% of the off-mode time —
the budget that lets ``"counters"`` stay the default. Results land in
the ``"observability"`` section of the same file.

Run as::

    PYTHONPATH=src python -m repro.benchlib.perfbench
    PYTHONPATH=src python -m repro.benchlib.perfbench --queries 20 --series 10
    PYTHONPATH=src python -m repro.benchlib.perfbench --obs-only
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.kernels import (
    PerfCounters,
    SeriesCache,
    SpectraStore,
    batch_mass,
    batch_min_distance,
    mass,
    subsequence_distance,
)

#: Default acceptance workload: 100 queries against 50 series.
DEFAULT_QUERIES = 100
DEFAULT_SERIES = 50
DEFAULT_SERIES_LENGTH = 300
DEFAULT_QUERY_LENGTH = 30


def machine_key() -> str:
    """Stable fingerprint of this machine for the results file."""
    return "-".join(
        part
        for part in (
            platform.system().lower(),
            platform.machine(),
            platform.python_version(),
        )
        if part
    )


def _best_of(repeats: int, fn) -> float:
    """Minimum wall time over ``repeats`` runs (noise-resistant)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    n_queries: int = DEFAULT_QUERIES,
    n_series: int = DEFAULT_SERIES,
    series_length: int = DEFAULT_SERIES_LENGTH,
    query_length: int = DEFAULT_QUERY_LENGTH,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Time scalar vs batched kernels on one workload; returns the record."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_series, series_length))
    queries = rng.normal(size=(n_queries, query_length))
    query_list = list(queries)

    # -- Def.-4 distance matrix: per-pair scalar loop vs one batched call.
    def scalar_min_distance():
        out = np.empty((n_series, n_queries))
        for j in range(n_series):
            for i in range(n_queries):
                out[j, i] = subsequence_distance(query_list[i], X[j])
        return out

    counters = PerfCounters()

    def batched_min_distance():
        return batch_min_distance(
            query_list, X, cache=SeriesCache(counters=counters)
        )

    scalar_result = scalar_min_distance()
    batched_result = batched_min_distance()
    if not np.array_equal(scalar_result, batched_result):
        raise AssertionError(
            "batched kernel output differs from the scalar loop"
        )
    t_scalar = _best_of(repeats, scalar_min_distance)
    t_batch = _best_of(repeats, batched_min_distance)

    # -- MASS profiles: per-query loop vs one batched FFT pass.
    series = rng.normal(size=series_length * 4)

    def scalar_mass():
        return [mass(q, series) for q in query_list]

    def batched_mass():
        return batch_mass(queries, series)

    t_scalar_mass = _best_of(repeats, scalar_mass)
    t_batch_mass = _best_of(repeats, batched_mass)

    return {
        "workload": {
            "n_queries": n_queries,
            "n_series": n_series,
            "series_length": series_length,
            "query_length": query_length,
            "repeats": repeats,
            "seed": seed,
        },
        "min_distance": {
            "scalar_seconds": t_scalar,
            "batch_seconds": t_batch,
            "speedup": t_scalar / t_batch if t_batch > 0 else float("inf"),
        },
        "mass": {
            "scalar_seconds": t_scalar_mass,
            "batch_seconds": t_batch_mass,
            "speedup": (
                t_scalar_mass / t_batch_mass
                if t_batch_mass > 0
                else float("inf")
            ),
        },
        "bit_identical": True,
        "perf_counters": counters.snapshot(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def run_spectra_store_check(
    n_queries: int = DEFAULT_QUERIES,
    n_series: int = DEFAULT_SERIES,
    series_length: int = DEFAULT_SERIES_LENGTH,
    query_length: int = DEFAULT_QUERY_LENGTH,
    seed: int = 0,
) -> dict:
    """Run one workload twice against a fresh persistent spectra store.

    The gate: the second run, with a cold in-memory cache, must hit on
    disk (cross-run hit rate > 0) — the whole point of the store.
    """
    import tempfile

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_series, series_length))
    query_list = list(rng.normal(size=(n_queries, query_length)))

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-spectra-") as tmp:
        store = SpectraStore(tmp)
        first = PerfCounters()
        batch_min_distance(
            query_list, X, cache=SeriesCache(first, store=store)
        )
        second = PerfCounters()
        batch_min_distance(
            query_list, X, cache=SeriesCache(second, store=store)
        )
        entries = len(store)
    if not second.spectra_disk_hits:
        failures.append("spectra store: second run recorded zero disk hits")

    return {
        "workload": {
            "n_queries": n_queries,
            "n_series": n_series,
            "series_length": series_length,
            "query_length": query_length,
            "seed": seed,
        },
        "entries": entries,
        "first_run": {
            "disk_hits": first.spectra_disk_hits,
            "disk_misses": first.spectra_disk_misses,
            "fft_count": first.fft_count,
        },
        "second_run": {
            "disk_hits": second.spectra_disk_hits,
            "disk_misses": second.spectra_disk_misses,
            "fft_count": second.fft_count,
        },
        "cross_run_hit_rate": second.spectra_disk_hit_rate,
        "gate": {"passed": not failures, "failures": failures},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


#: Counters-mode overhead budget enforced by ``--obs-only`` (2%).
OBS_MAX_COUNTERS_OVERHEAD = 0.02


def run_observability_benchmark(repeats: int = 5, seed: int = 0) -> dict:
    """Time ``IPS.discover`` across observability modes; returns the record.

    The same planted two-class dataset is discovered in ``"off"``,
    ``"counters"``, and ``"trace"`` modes. Modes run back-to-back within
    each repeat and the overhead of a mode is the *minimum over repeats
    of the within-repeat ratio* against the off run of the same repeat:
    adjacent runs share whatever machine drift is happening, so the
    paired ratio isolates the instrumentation cost, and taking the
    minimum means transient stalls can only hide overhead, never
    fabricate it — the gate (counters overhead within
    :data:`OBS_MAX_COUNTERS_OVERHEAD`) cannot fail from noise alone.
    """
    # Imported here: repro.benchlib must stay importable without pulling
    # the whole pipeline in at module-import time.
    from repro.core.config import IPSConfig
    from repro.core.pipeline import IPS
    from repro.ts.series import Dataset

    rng = np.random.default_rng(seed)
    n_per_class, length = 6, 120
    X = rng.normal(size=(2 * n_per_class, length))
    y = np.repeat([0, 1], n_per_class)
    X[y == 1] += np.sin(np.linspace(0.0, 6.0, length))
    dataset = Dataset(X=X, y=y)

    modes = ("off", "counters", "trace")

    def run(mode: str):
        config = IPSConfig(k=3, q_n=8, q_s=3, seed=seed, observability=mode)
        return IPS(config).discover(dataset)

    for mode in modes:  # warmup: caches, JIT-free but fills allocators
        run(mode)
    best = {mode: np.inf for mode in modes}
    best_ratio = {mode: np.inf for mode in ("counters", "trace")}
    for _ in range(repeats):
        elapsed = {}
        for mode in modes:
            start = time.perf_counter()
            run(mode)
            elapsed[mode] = time.perf_counter() - start
            best[mode] = min(best[mode], elapsed[mode])
        for mode in ("counters", "trace"):
            best_ratio[mode] = min(
                best_ratio[mode], elapsed[mode] / elapsed["off"]
            )
    overhead = {mode: best_ratio[mode] - 1.0 for mode in best_ratio}
    return {
        "workload": {
            "n_series": 2 * n_per_class,
            "series_length": length,
            "k": 3,
            "q_n": 8,
            "q_s": 3,
            "repeats": repeats,
            "seed": seed,
        },
        "seconds": {mode: best[mode] for mode in modes},
        "overhead": overhead,
        "gate": {
            "counters_max_overhead": OBS_MAX_COUNTERS_OVERHEAD,
            "passed": overhead["counters"] <= OBS_MAX_COUNTERS_OVERHEAD,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def run_serve_overhead_benchmark(repeats: int = 5, seed: int = 0) -> dict:
    """Time the serving path with and without telemetry attached.

    The ``observability="off"`` contract extended to serving: an
    :class:`~repro.serve.service.InferenceService` built without a
    registry must predict bit-identically to an instrumented one, and
    the instrumented path (shared registry + SLO tracker feeding every
    request) must stay within :data:`OBS_MAX_COUNTERS_OVERHEAD` of the
    bare path. Same methodology as the discovery-mode benchmark: the
    two services serve the identical request matrix back-to-back within
    each repeat, and the overhead is the minimum over repeats of the
    within-repeat ratio, so noise can hide overhead but never fabricate
    it.
    """
    from repro.core.config import IPSConfig
    from repro.core.pipeline import IPSClassifier
    from repro.datasets.generators import make_planted_dataset
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import SLOTracker
    from repro.serve.service import InferenceService, ServeConfig

    dataset = make_planted_dataset(
        n_classes=2, n_instances=16, length=100, seed=seed, name="obs-serve"
    )
    classifier = IPSClassifier(
        IPSConfig(k=3, q_n=6, q_s=3, seed=seed)
    ).fit_dataset(dataset)
    rng = np.random.default_rng(seed)
    X = dataset.X[rng.integers(0, dataset.X.shape[0], size=200)]
    config = ServeConfig(queue_depth=256, max_batch=32)

    def serve(instrumented: bool) -> tuple[np.ndarray, float]:
        kwargs = (
            {
                "metrics": MetricsRegistry(),
                "slo": SLOTracker(
                    latency_target_s=0.5,
                    latency_fraction=0.99,
                    error_rate_target=0.01,
                ),
            }
            if instrumented
            else {}
        )
        with InferenceService(classifier, config, **kwargs) as service:
            start = time.perf_counter()
            predictions = service.predict(X)
            return predictions, time.perf_counter() - start

    baseline, _ = serve(False)  # warmup + reference predictions
    best = {"off": np.inf, "telemetry": np.inf}
    best_ratio = np.inf
    bit_identical = True
    for _ in range(repeats):
        off_pred, off_s = serve(False)
        tel_pred, tel_s = serve(True)
        bit_identical = bit_identical and bool(
            np.array_equal(baseline, off_pred)
            and np.array_equal(baseline, tel_pred)
        )
        best["off"] = min(best["off"], off_s)
        best["telemetry"] = min(best["telemetry"], tel_s)
        best_ratio = min(best_ratio, tel_s / off_s)
    overhead = best_ratio - 1.0
    return {
        "workload": {
            "n_requests": int(X.shape[0]),
            "series_length": int(X.shape[1]),
            "repeats": repeats,
            "seed": seed,
        },
        "seconds": dict(best),
        "overhead": {"telemetry": overhead},
        "bit_identical": bit_identical,
        "gate": {
            "telemetry_max_overhead": OBS_MAX_COUNTERS_OVERHEAD,
            "passed": bit_identical and overhead <= OBS_MAX_COUNTERS_OVERHEAD,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def persist(record: dict, path: Path) -> None:
    """Merge the record into the machine-keyed results file.

    Merging is per top-level section, so an ``--obs-only`` run updates
    the ``"observability"`` section without wiping the kernel timings
    (and vice versa).
    """
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
    merged = existing.get(machine_key(), {})
    if not isinstance(merged, dict):
        merged = {}
    merged.update(record)
    existing[machine_key()] = merged
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _append_history(output: Path) -> None:
    """Append this machine's merged record to the trajectory ledger.

    Reads back the just-persisted BENCH file so the ledger line covers
    every section, whichever flags this invocation ran with.
    """
    from repro.benchlib.history import HISTORY_FILENAME, append_history

    try:
        merged = json.loads(output.read_text()).get(machine_key(), {})
    except (OSError, json.JSONDecodeError):
        return
    if merged:
        append_history(
            "kernels", machine_key(), merged, output.parent / HISTORY_FILENAME
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument("--series", type=int, default=DEFAULT_SERIES)
    parser.add_argument(
        "--series-length", type=int, default=DEFAULT_SERIES_LENGTH
    )
    parser.add_argument(
        "--query-length", type=int, default=DEFAULT_QUERY_LENGTH
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--obs-only",
        action="store_true",
        help="run the observability-overhead benchmark instead "
        "(gates counters-mode overhead at <=2%%)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[3] / "BENCH_kernels.json",
        help="machine-keyed results file (default: repo root)",
    )
    args = parser.parse_args(argv)

    if args.obs_only:
        record = run_observability_benchmark(repeats=max(args.repeats, 5))
        record["serve"] = run_serve_overhead_benchmark(
            repeats=max(args.repeats, 5)
        )
        persist({"observability": record}, args.output)
        _append_history(args.output)
        seconds, overhead = record["seconds"], record["overhead"]
        print(f"machine            {machine_key()}")
        for mode in ("off", "counters", "trace"):
            line = f"{mode:<19}{seconds[mode]:.4f}s"
            if mode in overhead:
                line += f"   overhead {overhead[mode]:+.2%}"
            print(line)
        serve = record["serve"]
        print(
            f"serve telemetry    {serve['seconds']['telemetry']:.4f}s   "
            f"overhead {serve['overhead']['telemetry']:+.2%}   "
            + ("bit-identical" if serve["bit_identical"] else "MISMATCH")
        )
        print(f"results written to {args.output}")
        failed = False
        if not record["gate"]["passed"]:
            print(
                f"FAIL: counters-mode overhead {overhead['counters']:+.2%} "
                f"exceeds the {OBS_MAX_COUNTERS_OVERHEAD:.0%} budget",
                file=sys.stderr,
            )
            failed = True
        if not serve["gate"]["passed"]:
            print(
                "FAIL: instrumented serve path "
                + (
                    f"overhead {serve['overhead']['telemetry']:+.2%} exceeds "
                    f"the {OBS_MAX_COUNTERS_OVERHEAD:.0%} budget"
                    if serve["bit_identical"]
                    else "is not bit-identical to the bare path"
                ),
                file=sys.stderr,
            )
            failed = True
        return 1 if failed else 0

    record = run_benchmark(
        n_queries=args.queries,
        n_series=args.series,
        series_length=args.series_length,
        query_length=args.query_length,
        repeats=args.repeats,
    )
    persist(record, args.output)

    dist, mass_rec = record["min_distance"], record["mass"]
    print(f"machine            {machine_key()}")
    print(
        f"min_distance       scalar {dist['scalar_seconds']:.4f}s   "
        f"batch {dist['batch_seconds']:.4f}s   "
        f"speedup {dist['speedup']:.1f}x"
    )
    print(
        f"mass profiles      scalar {mass_rec['scalar_seconds']:.4f}s   "
        f"batch {mass_rec['batch_seconds']:.4f}s   "
        f"speedup {mass_rec['speedup']:.1f}x"
    )

    failed = dist["speedup"] < 1.0 or mass_rec["speedup"] < 1.0
    if failed:
        print(
            "FAIL: batched kernels slower than the scalar loops",
            file=sys.stderr,
        )

    store_record = run_spectra_store_check(
        n_queries=args.queries,
        n_series=args.series,
        series_length=args.series_length,
        query_length=args.query_length,
    )
    persist({"spectra_store": store_record}, args.output)
    print(
        f"spectra store      cross-run hit rate "
        f"{store_record['cross_run_hit_rate']:.0%}"
    )
    if not store_record["gate"]["passed"]:
        for failure in store_record["gate"]["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        failed = True

    _append_history(args.output)
    print(f"results written to {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
