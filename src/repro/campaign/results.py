"""Campaign results: deterministic frame, accuracy matrices, CD report.

The *results frame* is the campaign's canonical deliverable: one row per
cell in (dataset, method, scenario) order, carrying only fields that are
deterministic functions of the spec (accuracy, status, typed error
provenance — never wall-clock timings). Its :meth:`ResultsFrame.digest`
is therefore reproducible: an uninterrupted campaign and one SIGKILL'd
and resumed N times hash to the same value, which is exactly what the
chaos gate asserts.

``build_frame`` collects a campaign directory through
:func:`repro.benchlib.tables.collect_cell_rows` (tolerant of partial /
failed / corrupt cells), and ``write_report`` emits the paper-style
outputs — per-scenario accuracy tables, the critical-difference diagram
via :mod:`repro.stats.cd_diagram`, a CSV of the frame — together with a
campaign manifest in the run-manifest format (versions, git SHA, and a
checksum table over every emitted file).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.benchlib.tables import collect_cell_rows, format_table
from repro.campaign.spec import CampaignSpec
from repro.exceptions import CampaignError
from repro.io import atomic_write, sha256_bytes

#: Frame columns, in order. All deterministic given the spec; timings
#: are deliberately excluded so the digest is crash/resume-invariant.
FRAME_COLUMNS: tuple[str, ...] = (
    "dataset", "method", "scenario", "status", "error_type",
    "accuracy", "completed",
)


@dataclass(frozen=True)
class ResultsFrame:
    """A small column-oriented results table (no pandas dependency)."""

    columns: dict[str, list] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        """Number of rows (cells)."""
        first = next(iter(self.columns.values()), [])
        return len(first)

    def row(self, index: int) -> dict:
        """One row as a dict."""
        return {name: values[index] for name, values in self.columns.items()}

    def rows(self) -> list[dict]:
        """All rows as dicts."""
        return [self.row(i) for i in range(self.n_rows)]

    @classmethod
    def from_rows(cls, rows: list[dict]) -> "ResultsFrame":
        """Build a frame from row dicts, sorted into canonical order."""
        ordered = sorted(
            rows, key=lambda r: (r["dataset"], r["method"], r["scenario"])
        )
        columns: dict[str, list] = {name: [] for name in FRAME_COLUMNS}
        for row in ordered:
            for name in FRAME_COLUMNS:
                columns[name].append(row.get(name))
        return cls(columns=columns)

    # -- canonical serialization -----------------------------------------

    def canonical_json(self) -> str:
        """Strict-JSON rendering of the frame (NaN → null, sorted keys)."""
        rows = []
        for row in self.rows():
            accuracy = row.get("accuracy")
            if isinstance(accuracy, float) and math.isnan(accuracy):
                accuracy = None
            rows.append({**row, "accuracy": accuracy})
        return json.dumps(
            {"columns": list(FRAME_COLUMNS), "rows": rows},
            sort_keys=True,
            allow_nan=False,
        )

    def digest(self) -> str:
        """SHA-256 of the canonical JSON — the chaos gate's identity."""
        return sha256_bytes(self.canonical_json().encode())

    def to_csv(self) -> str:
        """The frame as CSV text (NaN accuracy rendered empty)."""
        lines = [",".join(FRAME_COLUMNS)]
        for row in self.rows():
            cells = []
            for name in FRAME_COLUMNS:
                value = row.get(name)
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append("" if math.isnan(value) else repr(value))
                else:
                    cells.append(str(value))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    # -- matrices ---------------------------------------------------------

    def accuracy_matrix(
        self, scenario: str, datasets: list[str], methods: list[str]
    ) -> np.ndarray:
        """(datasets x methods) accuracies for one scenario, NaN for holes."""
        lookup = {
            (row["dataset"], row["method"]): row.get("accuracy")
            for row in self.rows()
            if row["scenario"] == scenario
        }
        matrix = np.full((len(datasets), len(methods)), np.nan)
        for i, dataset in enumerate(datasets):
            for j, method in enumerate(methods):
                value = lookup.get((dataset, method))
                if isinstance(value, (int, float)) and value is not None:
                    matrix[i, j] = float(value)
        return matrix


def build_frame(campaign_dir: str | Path, spec: CampaignSpec | None = None) -> ResultsFrame:
    """Collect a campaign directory into a results frame.

    With no explicit spec, the directory's manifest supplies it (the
    normal CLI path). Cells that never ran appear as ``missing`` NaN
    rows, so a crashed campaign still collects.
    """
    if spec is None:
        from repro.campaign.runner import CampaignRunner

        spec = CampaignRunner.from_dir(campaign_dir).spec
    expected = [
        (cell.dataset, cell.method, cell.scenario) for cell in spec.cells()
    ]
    return ResultsFrame.from_rows(collect_cell_rows(campaign_dir, expected))


def render_report(
    frame: ResultsFrame,
    spec: CampaignSpec,
    cd_method: str = "wilcoxon-holm",
) -> str:
    """Per-scenario accuracy tables plus critical-difference diagrams."""
    from repro.stats.cd_diagram import render_cd

    datasets = list(spec.datasets)
    methods = list(spec.methods)
    sections: list[str] = [
        f"Campaign report: {spec.name} "
        f"({len(datasets)} datasets x {len(methods)} methods x "
        f"{len(spec.scenarios)} scenarios, seed {spec.seed})"
    ]
    status_by_key = {
        (row["dataset"], row["method"], row["scenario"]): row
        for row in frame.rows()
    }
    for scenario in spec.scenarios:
        matrix = frame.accuracy_matrix(scenario, datasets, methods)
        rows = []
        for i, dataset in enumerate(datasets):
            cells: list[object] = [dataset]
            for j, method in enumerate(methods):
                value = matrix[i, j]
                if math.isnan(value):
                    row = status_by_key.get((dataset, method, scenario), {})
                    cells.append(row.get("error_type") or row.get("status") or "-")
                else:
                    cells.append(100.0 * value)
            rows.append(cells)
        sections.append(
            format_table(
                ["dataset"] + methods, rows, precision=2,
                title=f"scenario: {scenario}",
            )
        )
        n_failed = int(np.isnan(matrix).sum())
        if n_failed:
            sections.append(
                f"  ({n_failed} cell(s) without accuracy: failed/missing — "
                "ranked worst per the NaN convention)"
            )
        if len(methods) >= 2 and len(datasets) >= 2:
            sections.append(render_cd(methods, matrix, method=cd_method))
    return "\n\n".join(sections) + "\n"


def write_report(
    campaign_dir: str | Path, cd_method: str = "wilcoxon-holm"
) -> Path:
    """Emit the campaign report bundle under ``<campaign_dir>/report/``.

    Writes ``frame.json`` (canonical), ``results.csv``, ``report.txt``,
    and a ``manifest.json`` in the run-manifest format — spec, package
    versions, git SHA, the frame digest, and a SHA-256 checksum table
    over the emitted files (the artifact-layer discipline).
    """
    from repro.campaign.runner import CampaignRunner
    from repro.obs.manifest import git_sha, package_versions

    runner = CampaignRunner.from_dir(campaign_dir)
    spec = runner.spec
    frame = build_frame(campaign_dir, spec)
    report_dir = Path(campaign_dir) / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    outputs = {
        "frame.json": frame.canonical_json() + "\n",
        "results.csv": frame.to_csv(),
        "report.txt": render_report(frame, spec, cd_method=cd_method),
    }
    files = {}
    for name, text in outputs.items():
        payload = text.encode()
        atomic_write(report_dir / name, payload, CampaignError)
        files[name] = sha256_bytes(payload)
    manifest = {
        "format_version": 1,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "spec": spec.to_dict(),
        "frame_sha256": frame.digest(),
        "n_rows": frame.n_rows,
        "versions": package_versions(),
        "git_sha": git_sha(),
        "files": files,
    }
    atomic_write(
        report_dir / "manifest.json",
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
        CampaignError,
    )
    return report_dir


__all__ = [
    "FRAME_COLUMNS",
    "ResultsFrame",
    "build_frame",
    "render_report",
    "write_report",
]
