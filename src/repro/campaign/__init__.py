"""Crash-safe, resumable evaluation campaigns.

``repro.campaign`` runs the paper's dataset x method x scenario matrix
as one orchestrated campaign that survives crashes: an append-only JSONL
journal plus atomic, checksummed per-cell result files mean a SIGKILL'd
campaign resumes exactly where it died — completed cells are never
re-run, and the resumed results frame is bit-identical to an
uninterrupted run. Per-cell isolation (retries, backoff, timeouts) turns
a crashing baseline into a typed ``failed`` row instead of an aborted
campaign.

Layering::

    spec       - the matrix + derived per-cell seeds (CampaignSpec/Cell)
    scenarios  - named, seeded dataset perturbations (clean/noise/...)
    journal    - append-only event log with torn-tail recovery
    store      - atomic checksummed cell files + campaign manifest
    runner     - the orchestrator (RetryingExecutor + faults + signals)
    results    - deterministic results frame, CD report, report manifest

See ``docs/campaigns.md`` for the journal format and resume semantics.
"""

from repro.campaign.journal import Journal
from repro.campaign.results import (
    FRAME_COLUMNS,
    ResultsFrame,
    build_frame,
    render_report,
    write_report,
)
from repro.campaign.runner import CampaignRunner, run_cell, validate_cell_result
from repro.campaign.scenarios import (
    Scenario,
    apply_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.campaign.spec import CampaignCell, CampaignSpec, derive_cell_seed
from repro.campaign.store import CAMPAIGN_FORMAT_VERSION, CellStore
from repro.io import sha256_bytes

__all__ = [
    "CAMPAIGN_FORMAT_VERSION",
    "CampaignCell",
    "CampaignRunner",
    "CampaignSpec",
    "CellStore",
    "FRAME_COLUMNS",
    "Journal",
    "ResultsFrame",
    "Scenario",
    "apply_scenario",
    "build_frame",
    "derive_cell_seed",
    "get_scenario",
    "register_scenario",
    "render_report",
    "run_cell",
    "scenario_names",
    "sha256_bytes",
    "validate_cell_result",
    "write_report",
]
