"""The paper's primary contribution: the IPS shapelet-discovery pipeline.

Stages (Fig. 5 of the paper):

1. candidate generation with the instance profile (Algorithm 1) —
   :mod:`repro.instanceprofile`;
2. candidate pruning with the DABF (Algorithms 2-3) — :mod:`repro.filters`;
3. utility scoring (Definitions 11-13) with the DT & CR optimizations
   (Section III-E) and top-k selection (Algorithm 4) — here;
4. shapelet transform (Def. 7) + linear SVM — here.

:class:`IPS` runs discovery; :class:`IPSClassifier` adds the
transform-and-classify stage behind a ``fit``/``predict`` interface,
fitted as one :class:`ShapeletModel`.
"""

from repro.core.budget import Budget, BudgetTracker
from repro.core.analysis import (
    best_matches,
    coverage_summary,
    match_position_histogram,
    shapelet_quality,
)
from repro.core.config import IPSConfig
from repro.core.model import ShapeletModel
from repro.core.pipeline import IPS, IPSClassifier
from repro.core.report import describe_discovery
from repro.core.selection import select_top_k
from repro.core.transform import ShapeletTransform
from repro.core.tuning import TuningResult, tune_ips
from repro.core.utility import UtilityScores, score_candidates_brute, score_candidates_dt

__all__ = [
    "Budget",
    "BudgetTracker",
    "IPS",
    "IPSClassifier",
    "IPSConfig",
    "ShapeletModel",
    "ShapeletTransform",
    "TuningResult",
    "UtilityScores",
    "best_matches",
    "tune_ips",
    "coverage_summary",
    "describe_discovery",
    "match_position_histogram",
    "score_candidates_brute",
    "score_candidates_dt",
    "select_top_k",
    "shapelet_quality",
]
