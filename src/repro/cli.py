"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the registered datasets with their (true UCR) metadata.
``run``
    Evaluate one method on one dataset and print accuracy/timing.
``compare``
    Evaluate several methods on one dataset (a mini Table VI row).
``shapelets``
    Discover and print the IPS shapelets of a dataset.
``obs report``
    Render the per-phase time breakdown of a saved JSONL trace
    (written by ``--obs trace+jsonl`` or ``observability="trace+jsonl"``).
``obs top``
    Terminal dashboard over a live :class:`~repro.obs.TelemetryServer`
    (``--url``) or a saved trace file (``--path``).
``serve save`` / ``serve run``
    Export a fitted classifier as a checksummed model artifact, and
    serve predictions from one through the fault-hardened
    :mod:`repro.serve` service.
``stream``
    Replay a dataset's test split as chunked streams through the
    streaming service (:mod:`repro.streaming`) and report the early-
    emission fraction, mean emission time, and streaming-vs-batch
    accuracy.
``campaign run`` / ``campaign resume`` / ``campaign status`` /
``campaign report``
    Run the dataset x method x scenario matrix as a crash-safe,
    resumable campaign (:mod:`repro.campaign`): journal + checksummed
    cell files, per-cell retries/timeouts, graceful SIGINT/SIGTERM,
    and a deterministic results frame + critical-difference report.
"""

from __future__ import annotations

import argparse
import sys

from repro.benchlib.runners import evaluate_method, method_names
from repro.benchlib.tables import format_table
from repro.core.config import IPSConfig
from repro.core.pipeline import IPS
from repro.datasets.loader import load_dataset
from repro.datasets.registry import REGISTRY
from repro.obs import OBSERVABILITY_MODES


def _add_common_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", help="registry name, e.g. ArrowHead")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-train", type=int, default=24)
    parser.add_argument("--max-test", type=int, default=60)
    parser.add_argument("--max-length", type=int, default=150)
    parser.add_argument("--k", type=int, default=5, help="shapelets per class")


def _load(args: argparse.Namespace):
    return load_dataset(
        args.dataset,
        seed=args.seed,
        max_train=args.max_train,
        max_test=args.max_test,
        max_length=args.max_length,
    )


def cmd_list(_args: argparse.Namespace) -> int:
    """``repro list``"""
    rows = [
        [p.name, p.n_classes, p.n_train, p.n_test, p.length, p.category, p.generator]
        for p in sorted(REGISTRY.values(), key=lambda p: p.name)
    ]
    print(
        format_table(
            ["dataset", "classes", "train", "test", "length", "type", "generator"],
            rows,
            title=f"{len(rows)} registered datasets (true UCR metadata)",
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run <dataset> --method IPS``"""
    data = _load(args)
    overrides: dict = {}
    if args.budget_seconds is not None or args.max_candidates is not None:
        from repro.core.budget import Budget

        overrides["budget"] = Budget(
            max_seconds=args.budget_seconds, max_candidates=args.max_candidates
        )
    if args.obs is not None:
        if args.method not in ("IPS", "IPS-DIST"):
            print(
                f"--obs applies to IPS/IPS-DIST only, not {args.method}",
                file=sys.stderr,
            )
            return 2
        overrides["observability"] = args.obs
    result = evaluate_method(
        args.method,
        data,
        k=args.k,
        seed=args.seed,
        validation=args.validation,
        **overrides,
    )
    suffix = "" if result.completed else " (budget truncated; best-so-far)"
    print(
        f"{result.method} on {result.dataset}: "
        f"accuracy {100 * result.accuracy:.2f}%, "
        f"discovery {result.discovery_seconds:.2f}s, "
        f"fit total {result.total_seconds:.2f}s{suffix}"
    )
    if args.obs == "trace+jsonl":
        from repro.obs import DEFAULT_JSONL_PATH

        print(
            f"trace written to {DEFAULT_JSONL_PATH} "
            "(render with `repro obs report`)"
        )
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """``repro obs report [path]``"""
    from repro.obs import DEFAULT_JSONL_PATH, load_trace, render_report

    path = args.path if args.path is not None else DEFAULT_JSONL_PATH
    try:
        trace = load_trace(path)
    except FileNotFoundError as err:
        print(str(err), file=sys.stderr)
        return 1
    print(render_report(trace))
    return 0


def _render_top_frame(snapshot: dict, health: dict | None) -> str:
    """One ``repro obs top`` dashboard frame from a registry snapshot."""
    lines: list[str] = []
    if health is not None:
        status = health.get("status", "unknown")
        lines.append(f"health: {status}")
        for reason in health.get("reasons", []):
            lines.append(
                f"  [{reason.get('severity')}] {reason.get('code')}: "
                f"{reason.get('detail')}"
            )
    windows = snapshot.get("windows", {})
    if windows:
        rows = [
            [
                name,
                win.get("count", 0),
                _fmt_quantile(win.get("p50")),
                _fmt_quantile(win.get("p90")),
                _fmt_quantile(win.get("p99")),
            ]
            for name, win in sorted(windows.items())
        ]
        lines.append(
            format_table(
                ["window", "count", "p50", "p90", "p99"],
                rows,
                title="latency windows",
            )
        )
    counters = snapshot.get("counters", {})
    if counters:
        rows = [[name, value] for name, value in sorted(counters.items())]
        lines.append(format_table(["counter", "value"], rows, title="counters"))
    gauges = snapshot.get("gauges", {})
    if gauges:
        rows = [[name, value] for name, value in sorted(gauges.items())]
        lines.append(
            format_table(["gauge", "value"], rows, precision=4, title="gauges")
        )
    if not lines:
        lines.append("no metrics recorded yet")
    return "\n".join(lines)


def _fmt_quantile(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def cmd_obs_top(args: argparse.Namespace) -> int:
    """``repro obs top --url URL | --path JSONL``"""
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    if (args.url is None) == (args.path is None):
        print(
            "obs top needs exactly one of --url (live server) or "
            "--path (trace JSONL)",
            file=sys.stderr,
        )
        return 1

    def frame() -> tuple[dict, dict | None]:
        if args.url is not None:
            base = args.url.rstrip("/")
            with urllib.request.urlopen(f"{base}/metrics.json", timeout=5) as r:
                snapshot = _json.loads(r.read().decode("utf-8"))
            try:
                with urllib.request.urlopen(f"{base}/healthz", timeout=5) as r:
                    health = _json.loads(r.read().decode("utf-8"))
            except urllib.error.HTTPError as err:
                # /healthz answers 503 when unhealthy — still a report.
                health = _json.loads(err.read().decode("utf-8"))
            return snapshot, health
        from repro.obs import load_trace

        trace = load_trace(args.path)
        return trace.metrics.snapshot(), None

    iteration = 0
    while True:
        try:
            snapshot, health = frame()
        except (OSError, ValueError) as err:
            print(f"obs top: {err}", file=sys.stderr)
            return 1
        print(_render_top_frame(snapshot, health))
        iteration += 1
        if not args.watch and iteration >= args.iterations:
            return 0
        _time.sleep(args.interval)


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare <dataset> --methods IPS,BASE``"""
    data = _load(args)
    wanted = (
        [m.strip() for m in args.methods.split(",")]
        if args.methods
        else method_names()
    )
    rows = []
    for method in wanted:
        result = evaluate_method(method, data, k=args.k, seed=args.seed)
        rows.append([method, 100 * result.accuracy, result.total_seconds])
    rows.sort(key=lambda row: -row[1])
    print(
        format_table(
            ["method", "accuracy %", "fit (s)"],
            rows,
            title=f"Comparison on {args.dataset}",
        )
    )
    return 0


def cmd_shapelets(args: argparse.Namespace) -> int:
    """``repro shapelets <dataset>``"""
    data = _load(args)
    config = IPSConfig(k=args.k, q_n=10, q_s=3, seed=args.seed)
    result = IPS(config).discover(data.train)
    print(
        f"{args.dataset}: {result.n_candidates_generated} candidates -> "
        f"{result.n_candidates_after_pruning} after pruning; "
        f"{len(result.shapelets)} shapelets in {result.total_time:.2f}s"
    )
    rows = [
        [s.label, s.length, s.source_instance, s.start, s.score]
        for s in result.shapelets
    ]
    print(
        format_table(
            ["class", "length", "instance", "offset", "utility"],
            rows,
            precision=4,
        )
    )
    return 0


def cmd_serve_save(args: argparse.Namespace) -> int:
    """``repro serve save <dataset> --out DIR``"""
    from repro.core.pipeline import IPSClassifier
    from repro.serve import save_artifact

    data = _load(args)
    config = IPSConfig(
        k=args.k, q_n=10, q_s=3, seed=args.seed, validation_mode=args.validation
    )
    classifier = IPSClassifier(config).fit_dataset(data.train)
    accuracy = classifier.score(data.test.X, data.test.classes_[data.test.y])
    path = save_artifact(classifier, args.out)
    print(
        f"saved {args.dataset} artifact to {path} "
        f"({len(classifier.shapelets_)} shapelets, "
        f"holdout accuracy {100 * accuracy:.2f}%)"
    )
    return 0


def _make_telemetry(port: int | None):
    """(registry, slo) for the serve/stream commands, or (None, None)."""
    if port is None:
        return None, None
    from repro.obs import MetricsRegistry, SLOTracker

    return MetricsRegistry(), SLOTracker()


def cmd_serve_run(args: argparse.Namespace) -> int:
    """``repro serve run --artifact DIR``"""
    from repro.exceptions import ServeError
    from repro.serve import InferenceService, ServeConfig, load_artifact

    try:
        classifier = load_artifact(args.artifact)
    except ServeError as err:
        print(f"refusing artifact: {err}", file=sys.stderr)
        return 1
    config = ServeConfig(
        queue_depth=args.queue_depth,
        validation=args.validation,
        default_deadline_s=(
            None if args.deadline_ms is None else args.deadline_ms / 1e3
        ),
    )
    # Self-test traffic: Gaussian series of the model's length (an
    # artifact holds no training series).
    import numpy as np

    rng = np.random.default_rng(args.seed)
    X = rng.normal(size=(args.requests, classifier.model_.series_length))
    registry, slo = _make_telemetry(args.telemetry_port)
    server = None
    with InferenceService(
        classifier, config, metrics=registry, slo=slo
    ) as service:
        if registry is not None:
            from repro.obs import TelemetryServer

            server = TelemetryServer(
                registry, health_fn=service.health, port=args.telemetry_port
            ).start()
            print(
                f"telemetry on {server.url} (/metrics, /metrics.json, /healthz)"
            )
        try:
            results = service.predict_many(X)
        finally:
            if server is not None:
                server.close()
    n_ok = sum(1 for _value, error in results if error is None)
    stats = service.stats()
    print(
        f"served {n_ok}/{len(results)} requests ok "
        f"(shed {stats['shed']}, expired {stats['expired']}, "
        f"failed {stats['failed']}); breaker {stats['breaker']['state']}"
    )
    for _value, error in results:
        if error is not None:
            print(f"  first error: {type(error).__name__}: {error}")
            break
    return 0 if n_ok == len(results) else 1


def cmd_stream(args: argparse.Namespace) -> int:
    """``repro stream <dataset>``"""
    import numpy as np

    from repro.core.pipeline import IPSClassifier
    from repro.serve import StreamConfig, StreamingInferenceService

    data = _load(args)
    config = IPSConfig(
        k=args.k,
        q_n=10,
        q_s=3,
        seed=args.seed,
        streaming_margin_threshold=args.margin_threshold,
        streaming_min_fraction=args.min_fraction,
        streaming_chunk_size=args.chunk_size,
    )
    classifier = IPSClassifier(config).fit_dataset(data.train)
    stream_config = StreamConfig(
        margin_threshold=config.streaming_margin_threshold,
        min_fraction=config.streaming_min_fraction,
    )
    X = data.test.X
    y_true = data.test.classes_[data.test.y]
    batch_labels = classifier.predict(X)
    registry, slo = _make_telemetry(args.telemetry_port)
    server = None
    with StreamingInferenceService(
        classifier, stream_config=stream_config, metrics=registry, slo=slo
    ) as service:
        if registry is not None:
            from repro.obs import TelemetryServer

            server = TelemetryServer(
                registry, health_fn=service.health, port=args.telemetry_port
            ).start()
            print(
                f"telemetry on {server.url} (/metrics, /metrics.json, /healthz)"
            )
        try:
            decisions = [
                service.stream_series(
                    row, chunk_size=config.streaming_chunk_size
                )
                for row in X
            ]
        finally:
            if server is not None:
                server.close()
    length = X.shape[1]
    labels = np.array([d.label for d in decisions])
    early = [d for d in decisions if d.early]
    agreement = float(np.mean(labels == batch_labels))
    accuracy = float(np.mean(labels == y_true))
    batch_accuracy = float(np.mean(batch_labels == y_true))
    print(
        f"streamed {len(decisions)} test series of {args.dataset} "
        f"(chunk size {config.streaming_chunk_size}, margin threshold "
        f"{stream_config.margin_threshold}, min fraction "
        f"{stream_config.min_fraction})"
    )
    print(
        f"  early emissions: {len(early)}/{len(decisions)} "
        f"({100 * len(early) / max(1, len(decisions)):.0f}%)"
    )
    if early:
        mean_t = float(np.mean([d.t_emitted for d in early]))
        print(
            f"  mean early-emission time: {mean_t:.1f}/{length} samples "
            f"({100 * mean_t / length:.0f}% of the series)"
        )
    print(f"  agreement with batch labels: {100 * agreement:.2f}%")
    print(
        f"  accuracy streaming {100 * accuracy:.2f}% "
        f"vs batch {100 * batch_accuracy:.2f}%"
    )
    return 0


def _print_campaign_status(status: dict) -> None:
    print(
        f"campaign {status['campaign']} in {status['dir']}: "
        f"{status['n_ok']} ok, {status['n_failed']} failed, "
        f"{status['n_pending']} pending of {status['n_cells']} cells"
        + (" [interrupted]" if status["interrupted"] else "")
    )
    for cell_id, error_type in status["failed_cells"]:
        print(f"  failed: {cell_id} ({error_type})")


def _campaign_fault_plan(args: argparse.Namespace):
    """Optional chaos plan from --fault-rate (crash/hang/slow split)."""
    if not args.fault_rate:
        return None
    from repro.distributed.faults import FaultPlan

    rate = args.fault_rate
    return FaultPlan(
        crash_rate=0.5 * rate,
        hang_rate=0.25 * rate,
        slow_rate=0.25 * rate,
        slow_seconds=0.05,
        seed=args.fault_seed,
    )


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """``repro campaign run --out DIR --datasets A,B --methods X,Y``"""
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.exceptions import CampaignError

    spec = CampaignSpec(
        datasets=tuple(d.strip() for d in args.datasets.split(",") if d.strip()),
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        scenarios=tuple(
            s.strip() for s in args.scenarios.split(",") if s.strip()
        ),
        seed=args.seed,
        k=args.k,
        max_train=args.max_train,
        max_test=args.max_test,
        max_length=args.max_length,
        validation=args.validation,
        name=args.name,
    )
    try:
        runner = CampaignRunner(
            spec,
            args.out,
            fault_plan=_campaign_fault_plan(args),
            retries=args.retries,
            max_cell_seconds=args.max_cell_seconds,
        )
        status = runner.run(max_cells=args.max_cells)
    except CampaignError as err:
        print(str(err), file=sys.stderr)
        return 1
    _print_campaign_status(status)
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """``repro campaign resume --dir DIR``"""
    from repro.campaign import CampaignRunner
    from repro.exceptions import CampaignError

    try:
        runner = CampaignRunner.from_dir(args.dir)
        status = runner.run(max_cells=args.max_cells)
    except CampaignError as err:
        print(str(err), file=sys.stderr)
        return 1
    _print_campaign_status(status)
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """``repro campaign status --dir DIR``"""
    from repro.campaign import CampaignRunner
    from repro.exceptions import CampaignError

    try:
        status = CampaignRunner.from_dir(args.dir).status()
    except CampaignError as err:
        print(str(err), file=sys.stderr)
        return 1
    _print_campaign_status(status)
    retried = {
        cell_id: n for cell_id, n in status["cell_starts"].items() if n > 1
    }
    if retried:
        print(f"  cells started more than once (interrupted runs): {len(retried)}")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """``repro campaign report --dir DIR``"""
    from repro.campaign import write_report
    from repro.exceptions import CampaignError

    try:
        report_dir = write_report(args.dir, cd_method=args.cd_method)
    except CampaignError as err:
        print(str(err), file=sys.stderr)
        return 1
    print((report_dir / "report.txt").read_text())
    print(f"report bundle written to {report_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IPS shapelet discovery (ICDE 2022) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered datasets").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="evaluate one method on one dataset")
    _add_common_dataset_args(run)
    run.add_argument("--method", default="IPS", choices=method_names())
    run.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="anytime wall-clock budget for discovery (budget-aware "
        "methods: IPS, IPS-DIST, BASE, FS)",
    )
    run.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        help="anytime candidate-count budget for discovery",
    )
    run.add_argument(
        "--validation",
        default="repair",
        choices=["strict", "repair", "off"],
        help="data-contract mode applied to the training split",
    )
    run.add_argument(
        "--obs",
        default=None,
        choices=OBSERVABILITY_MODES,
        help="observability mode for the run (IPS / IPS-DIST only); "
        "trace+jsonl writes .repro-obs/last-run.jsonl for `repro obs report`",
    )
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="evaluate several methods")
    _add_common_dataset_args(compare)
    compare.add_argument(
        "--methods", default="", help="comma-separated subset (default: all)"
    )
    compare.set_defaults(func=cmd_compare)

    shapelets = sub.add_parser("shapelets", help="discover and print shapelets")
    _add_common_dataset_args(shapelets)
    shapelets.set_defaults(func=cmd_shapelets)

    serve = sub.add_parser(
        "serve", help="model artifacts and the online inference service"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_save = serve_sub.add_parser(
        "save", help="fit a classifier and export a checksummed artifact"
    )
    _add_common_dataset_args(serve_save)
    serve_save.add_argument(
        "--out", required=True, help="artifact directory to write"
    )
    serve_save.add_argument(
        "--validation",
        default="repair",
        choices=["strict", "repair", "off"],
        help="data-contract mode applied to the training split",
    )
    serve_save.set_defaults(func=cmd_serve_save)

    serve_run = serve_sub.add_parser(
        "run", help="start the service on a saved artifact (self-test load)"
    )
    serve_run.add_argument(
        "--artifact", required=True, help="artifact directory to serve"
    )
    serve_run.add_argument("--requests", type=int, default=50)
    serve_run.add_argument("--seed", type=int, default=0)
    serve_run.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline (default: none)",
    )
    serve_run.add_argument(
        "--queue-depth", type=int, default=64, help="admission-queue bound"
    )
    serve_run.add_argument(
        "--validation",
        default="repair",
        choices=["strict", "repair", "off"],
        help="per-request data-contract mode",
    )
    serve_run.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        help="expose /metrics + /healthz on this port (0 = OS-assigned)",
    )
    serve_run.set_defaults(func=cmd_serve_run)

    stream = sub.add_parser(
        "stream",
        help="replay test series as chunked streams (early classification)",
    )
    _add_common_dataset_args(stream)
    stream.add_argument(
        "--margin-threshold",
        type=float,
        default=IPSConfig.__dataclass_fields__["streaming_margin_threshold"].default,
        help="decision margin required for early emission",
    )
    stream.add_argument(
        "--min-fraction",
        type=float,
        default=IPSConfig.__dataclass_fields__["streaming_min_fraction"].default,
        help="fraction of the series that must arrive before early emission",
    )
    stream.add_argument(
        "--chunk-size",
        type=int,
        default=IPSConfig.__dataclass_fields__["streaming_chunk_size"].default,
        help="replay chunk size in samples",
    )
    stream.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        help="expose /metrics + /healthz on this port (0 = OS-assigned)",
    )
    stream.set_defaults(func=cmd_stream)

    campaign = sub.add_parser(
        "campaign", help="crash-safe, resumable evaluation campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_resume_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--max-cells",
            type=int,
            default=None,
            help="run at most this many new cells, then stop at the boundary",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="start (or continue) a campaign in --out"
    )
    campaign_run.add_argument(
        "--out", required=True, help="campaign directory (journal + cells)"
    )
    campaign_run.add_argument(
        "--datasets", required=True, help="comma-separated registry names"
    )
    campaign_run.add_argument(
        "--methods", required=True, help="comma-separated method names"
    )
    campaign_run.add_argument(
        "--scenarios",
        default="clean",
        help="comma-separated scenario names (default: clean)",
    )
    campaign_run.add_argument("--name", default="campaign")
    campaign_run.add_argument("--seed", type=int, default=0)
    campaign_run.add_argument("--k", type=int, default=5)
    campaign_run.add_argument("--max-train", type=int, default=24)
    campaign_run.add_argument("--max-test", type=int, default=60)
    campaign_run.add_argument("--max-length", type=int, default=150)
    campaign_run.add_argument(
        "--validation", default="repair", choices=["strict", "repair", "off"]
    )
    campaign_run.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per cell before it is marked failed",
    )
    campaign_run.add_argument(
        "--max-cell-seconds",
        type=float,
        default=None,
        help="per-cell wall-clock budget (overrun = retryable timeout)",
    )
    campaign_run.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="chaos-engine fault rate per attempt (split crash/hang/slow)",
    )
    campaign_run.add_argument(
        "--fault-seed", type=int, default=0, help="chaos-engine seed"
    )
    _add_campaign_resume_args(campaign_run)
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="resume a campaign from its directory alone"
    )
    campaign_resume.add_argument("--dir", required=True)
    _add_campaign_resume_args(campaign_resume)
    campaign_resume.set_defaults(func=cmd_campaign_resume)

    campaign_status = campaign_sub.add_parser(
        "status", help="journal-derived progress snapshot"
    )
    campaign_status.add_argument("--dir", required=True)
    campaign_status.set_defaults(func=cmd_campaign_status)

    campaign_report = campaign_sub.add_parser(
        "report", help="results frame + critical-difference report bundle"
    )
    campaign_report.add_argument("--dir", required=True)
    campaign_report.add_argument(
        "--cd-method",
        default="wilcoxon-holm",
        choices=["nemenyi", "wilcoxon-holm"],
        help="pairwise test behind the critical-difference groups",
    )
    campaign_report.set_defaults(func=cmd_campaign_report)

    obs = sub.add_parser("obs", help="observability tools")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="render a saved JSONL trace as a time breakdown"
    )
    report.add_argument(
        "path",
        nargs="?",
        default=None,
        help="trace file (default: .repro-obs/last-run.jsonl)",
    )
    report.set_defaults(func=cmd_obs_report)

    top = obs_sub.add_parser(
        "top", help="terminal dashboard: live /metrics.json or a trace file"
    )
    top.add_argument(
        "--url", default=None, help="base URL of a live TelemetryServer"
    )
    top.add_argument(
        "--path", default=None, help="saved obs JSONL trace to render instead"
    )
    top.add_argument(
        "--watch",
        action="store_true",
        help="refresh forever (default: print --iterations frames and exit)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=1,
        help="frames to print without --watch (default: 1)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between frames",
    )
    top.set_defaults(func=cmd_obs_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
