"""Human-readable rendering of a trace: the per-phase time breakdown.

``render_report`` turns a :class:`~repro.obs.trace.Trace` into the
terminal report behind ``repro obs report``: a span tree with sibling
spans of the same name aggregated (count, total, self, cumulative %),
followed by the counter/gauge tables and a manifest summary.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.trace import Span, Trace


def _tree_rows(
    spans: list[Span], depth: int, run_total: float, rows: list
) -> None:
    """Aggregate same-named siblings and recurse depth-first."""
    groups: dict[str, list[Span]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
    for name, group in groups.items():
        total = sum(s.duration for s in group)
        children = [c for s in group for c in s.children]
        self_time = total - sum(c.duration for c in children)
        share = 100.0 * total / run_total if run_total > 0 else 0.0
        rows.append(
            [
                "  " * depth + name,
                len(group),
                total,
                self_time,
                share,
            ]
        )
        _tree_rows(children, depth + 1, run_total, rows)


def render_report(trace: Trace) -> str:
    """The full ``repro obs report`` text for one trace."""
    # Imported here: repro.benchlib pulls in the baselines package, which
    # itself imports repro.obs (via the kernels/candidates stack) — a
    # module-level import would be circular.
    from repro.benchlib.tables import format_table

    run_total = trace.total_seconds
    rows: list = []
    _tree_rows(trace.roots, 0, run_total, rows)
    sections = [
        format_table(
            ["span", "count", "total s", "self s", "cum %"],
            rows,
            precision=4,
            title=f"span tree — run total {run_total:.4f}s",
        )
    ]

    metrics = trace.metrics.snapshot()
    counter_rows = [
        [name, value] for name, value in sorted(metrics["counters"].items())
    ]
    gauge_rows = [
        [name, value] for name, value in sorted(metrics["gauges"].items())
    ]
    hist_rows = [
        [name, hist["count"], hist["sum"], hist["min"], hist["max"]]
        for name, hist in sorted(metrics["histograms"].items())
    ]
    if counter_rows:
        sections.append(
            format_table(["counter", "value"], counter_rows, title="counters")
        )
    if gauge_rows:
        sections.append(
            format_table(["gauge", "value"], gauge_rows, precision=4, title="gauges")
        )
    if hist_rows:
        sections.append(
            format_table(
                ["histogram", "count", "sum", "min", "max"],
                hist_rows,
                precision=4,
                title="histograms",
            )
        )

    cache_section = _render_kernel_caches(
        metrics["counters"], metrics["gauges"]
    )
    if cache_section:
        sections.append(cache_section)

    manifest = trace.manifest or {}
    if manifest:
        lines = ["manifest"]
        versions = manifest.get("versions") or {}
        if versions:
            lines.append(
                "  versions: "
                + ", ".join(f"{k} {v}" for k, v in sorted(versions.items()))
            )
        if manifest.get("git_sha"):
            lines.append(f"  git sha: {manifest['git_sha']}")
        dataset = manifest.get("dataset") or {}
        if dataset:
            lines.append(
                f"  dataset: {dataset.get('name') or '<unnamed>'} "
                f"({dataset.get('n_series')} x {dataset.get('series_length')}, "
                f"{dataset.get('n_classes')} classes, "
                f"sha256 {str(dataset.get('sha256'))[:12]}...)"
            )
        if manifest.get("seed") is not None:
            lines.append(f"  seed: {manifest['seed']}")
        if manifest.get("created_at"):
            lines.append(f"  created: {manifest['created_at']}")
        sections.append("\n".join(lines))

    return "\n\n".join(sections)


def _render_kernel_caches(counters: dict, gauges: dict) -> str | None:
    """Cache-effectiveness summary of the kernel engine's counters.

    Surfaces the in-memory series cache and the persistent spectra
    store (disk hits/misses + hit rates), so cache behaviour is readable
    straight from ``repro obs report`` instead of raw JSONL.
    """
    mem_hits = counters.get("kernels.cache_hits")
    disk_hits = counters.get("kernels.spectra_disk_hits")
    if mem_hits is None and disk_hits is None:
        return None
    lines = ["kernel engine"]
    if mem_hits is not None:
        misses = counters.get("kernels.cache_misses", 0)
        rate = gauges.get("kernels.cache_hit_rate", 0.0)
        lines.append(
            f"  series cache: {int(mem_hits)} hits / {int(misses)} misses "
            f"(hit rate {rate:.1%})"
        )
    if disk_hits is not None:
        misses = counters.get("kernels.spectra_disk_misses", 0)
        rate = gauges.get("kernels.spectra_disk_hit_rate", 0.0)
        lines.append(
            f"  spectra store: {int(disk_hits)} disk hits / "
            f"{int(misses)} misses (hit rate {rate:.1%})"
        )
    return "\n".join(lines)


def load_trace(path: str | Path) -> Trace:
    """Read a JSONL trace file from disk."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(
            f"no trace file at {path}; run with observability='trace+jsonl' "
            "(or `repro run ... --obs trace+jsonl`) first"
        )
    return Trace.from_jsonl(path)
