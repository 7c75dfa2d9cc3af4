"""``repro.streaming``: early classification over unbounded series.

The streaming subsystem turns the batch shapelet pipeline into an online
one, in three layers:

* :class:`StreamingMatcher` — per-shapelet sliding minimum distances
  over a chunk-fed series, maintained incrementally on
  :class:`~repro.kernels.RollingStats` and the direct kernels;
* :class:`StreamingTransform` — the best-so-far shapelet-transform
  feature vector after every ``append(chunk)``, bit-identical at end of
  stream to :func:`~repro.kernels.direct_min_distance` on the full series;
* :class:`EarlyClassifier` — wraps any :class:`repro.types.Predictor`
  and emits a :class:`StreamingDecision` once the decision margin clears
  a threshold, with optional anytime budgets, metrics gauges, and margin
  drift detection.

The serve layer exposes sessions over this stack
(:class:`repro.serve.StreamingInferenceService`), the CLI as
``repro stream``, and :func:`repro.datasets.iter_chunks` replays any
generator dataset as a chunked stream. See ``docs/streaming.md``.
"""

from __future__ import annotations

from repro.streaming.early import (
    REASONS,
    EarlyClassifier,
    MarginDriftDetector,
    StreamingDecision,
)
from repro.streaming.matcher import StreamingMatcher
from repro.streaming.transform import StreamingTransform

__all__ = [
    "EarlyClassifier",
    "MarginDriftDetector",
    "REASONS",
    "StreamingDecision",
    "StreamingMatcher",
    "StreamingTransform",
]
