"""Early classification: emit a label before the series has fully arrived.

:class:`EarlyClassifier` wraps any fitted :class:`repro.types.Predictor`
over shapelet-transform features and watches the prediction's *decision
margin* (:func:`repro.types.decision_margin` — top score minus runner-up)
as samples stream in. Once the margin clears a threshold (and enough of
the series has arrived), the label is emitted early and latched; a
resource budget (:class:`repro.core.budget.Budget`) can force a best-so-
far emission instead, mirroring the anytime ``completed=False`` contract
of discovery.

Because the streaming features converge bit-identically to the batch
direct-kernel features (:func:`repro.kernels.direct_min_distance`; see
:mod:`repro.streaming.transform`), an end-of-stream decision always
equals the batch prediction on the full series — early emission can only
trade *when* for *what* under the margin threshold, never silently change
the final model.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.budget import Budget, BudgetTracker
from repro.exceptions import NotFittedError, ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.streaming.transform import StreamingTransform
from repro.types import Predictor, decision_margin

#: Decision reasons, in the order a stream can produce them.
REASONS: tuple[str, ...] = ("pending", "margin", "budget", "end_of_stream")


@dataclass(frozen=True)
class StreamingDecision:
    """One early-classification verdict (emitted after every append).

    Attributes
    ----------
    label:
        Best-guess label so far (``None`` before any feature is ready).
    confidence:
        ``predict_proba`` mass of ``label`` on the current features.
    margin:
        Decision margin (top minus runner-up score) on the current
        features — the quantity the emission threshold compares against.
    t_emitted:
        Samples seen when this decision was produced.
    final:
        True once the decision is latched: the margin cleared the
        threshold, the budget ran out, or the stream was closed. Later
        appends return the same decision.
    reason:
        Why this decision has its ``final`` status: ``"pending"`` (still
        streaming), ``"margin"`` (early emission), ``"budget"`` (anytime
        truncation), or ``"end_of_stream"`` (:meth:`EarlyClassifier.finalize`).
    completed:
        False only for budget truncations — the streaming analogue of
        ``DiscoveryResult.completed``.
    """

    label: int | None
    confidence: float
    margin: float
    t_emitted: int
    final: bool
    reason: str
    completed: bool = True

    @property
    def early(self) -> bool:
        """True when the label was emitted before the stream ended."""
        return self.final and self.reason == "margin"


class MarginDriftDetector:
    """Flag sustained margin collapse over a sliding window of decisions.

    A cheap guard for long-running streams: when the mean margin of the
    newer half of the window drops below ``ratio`` times the older half's
    mean, :attr:`drifted` latches True — a signal to re-fit or to stop
    trusting early emissions. Purely observational; it never blocks a
    decision.
    """

    def __init__(self, window: int = 32, ratio: float = 0.5) -> None:
        if window < 4 or window % 2:
            raise ValidationError("window must be an even integer >= 4")
        if not 0.0 < ratio <= 1.0:
            raise ValidationError(f"ratio must be in (0, 1], got {ratio}")
        self.window = window
        self.ratio = ratio
        self._margins: deque[float] = deque(maxlen=window)
        self.drifted = False

    def update(self, margin: float) -> bool:
        """Record one margin; return the (latched) drift flag."""
        if np.isfinite(margin):
            self._margins.append(float(margin))
        if len(self._margins) == self.window and not self.drifted:
            half = self.window // 2
            values = list(self._margins)
            older = sum(values[:half]) / half
            newer = sum(values[half:]) / half
            if older > 0 and newer < self.ratio * older:
                self.drifted = True
        return self.drifted


class EarlyClassifier:
    """Wrap a :class:`~repro.types.Predictor` for margin-gated early labels.

    Parameters
    ----------
    predictor:
        Any fitted Predictor over shapelet-transform feature vectors
        (typically the final classifier of an
        :class:`~repro.core.pipeline.IPSClassifier` — see
        :meth:`from_classifier`).
    shapelets:
        The shapelet set defining the features the predictor was trained
        on.
    scaler:
        Optional fitted feature scaler applied before prediction (the
        pipeline's :class:`~repro.classify.scaler.StandardScaler`).
    margin_threshold:
        Emit early once the decision margin reaches this. ``inf``
        disables early emission.
    min_samples:
        Samples that must arrive before early emission is allowed
        (independent of shapelet lengths; readiness is always required).
    budget:
        Optional :class:`~repro.core.budget.Budget`; each append charges
        its sample count to the candidate axis, and exhaustion forces a
        final best-so-far decision with ``completed=False``.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; gauges
        ``streaming.margin``, ``streaming.emit_t``, observations
        ``streaming.append_seconds``, and counters
        ``streaming.appends`` / ``streaming.early_emits`` are recorded.
    classes:
        Optional label mapping: when the predictor was trained on
        internal labels ``0..C-1`` (as the IPS pipeline's inner
        classifier is), ``classes[internal]`` recovers the original
        value. ``None`` emits the predictor's labels unchanged.
    drift_detector:
        Optional :class:`MarginDriftDetector` updated with every margin.
    """

    def __init__(
        self,
        predictor: Predictor,
        shapelets,
        *,
        scaler=None,
        margin_threshold: float = 1.0,
        min_samples: int = 0,
        budget: Budget | None = None,
        metrics: MetricsRegistry | None = None,
        classes=None,
        drift_detector: MarginDriftDetector | None = None,
    ) -> None:
        for method in ("predict", "predict_proba", "decision_function"):
            if not callable(getattr(predictor, method, None)):
                raise ValidationError(
                    f"predictor lacks the Predictor surface ({method}); "
                    "see repro.types.Predictor"
                )
        if margin_threshold < 0:
            raise ValidationError(
                f"margin_threshold must be >= 0, got {margin_threshold}"
            )
        if min_samples < 0:
            raise ValidationError(f"min_samples must be >= 0, got {min_samples}")
        self.predictor = predictor
        self.transform = StreamingTransform(shapelets)
        self.scaler = scaler
        self.margin_threshold = float(margin_threshold)
        self.min_samples = int(min_samples)
        self.metrics = metrics
        self.classes = None if classes is None else np.asarray(classes)
        self.drift_detector = drift_detector
        self.tracker: BudgetTracker | None = (
            budget.start() if budget is not None else None
        )
        self.decision: StreamingDecision = StreamingDecision(
            label=None,
            confidence=0.0,
            margin=0.0,
            t_emitted=0,
            final=False,
            reason="pending",
        )

    @classmethod
    def from_classifier(
        cls, classifier, *, margin_threshold: float = 1.0, **kwargs
    ) -> "EarlyClassifier":
        """Build from a fitted pipeline classifier.

        Accepts an :class:`~repro.core.pipeline.IPSClassifier` or any
        baseline :class:`~repro.baselines.base.ShapeletTransformClassifier`
        — both hold a :class:`~repro.core.model.ShapeletModel` in
        ``model_``: shapelets, a scaler/classifier pair trained on
        internal labels, and original-valued ``classes_``.
        """
        model = getattr(classifier, "model_", None)
        if model is None:
            raise NotFittedError(
                "from_classifier needs a fitted shapelet-pipeline classifier"
            )
        return cls(
            model.classifier,
            model.transform.shapelets_,
            scaler=model.scaler,
            margin_threshold=margin_threshold,
            classes=model.classes_,
            **kwargs,
        )

    @property
    def final(self) -> bool:
        """True once the decision is latched."""
        return self.decision.final

    def _map_label(self, internal: int) -> int:
        if self.classes is None:
            return int(internal)
        return int(self.classes[int(internal)]) if 0 <= internal < len(
            self.classes
        ) else int(internal)

    def _evaluate(self) -> tuple[int, float, float]:
        """Predict on the current features: (label, confidence, margin)."""
        features = self.transform.features.reshape(1, -1)
        if self.scaler is not None:
            features = self.scaler.transform(features)
        scores = np.asarray(
            self.predictor.decision_function(features), dtype=np.float64
        )
        margin = float(decision_margin(scores)[0])
        proba = np.asarray(self.predictor.predict_proba(features), dtype=np.float64)
        label = int(np.asarray(self.predictor.predict(features))[0])
        classes = np.asarray(getattr(self.predictor, "classes_", []))
        if classes.size == proba.shape[1]:
            confidence = float(proba[0, int(np.searchsorted(classes, label))])
        else:
            confidence = float(proba[0].max())
        return self._map_label(label), confidence, margin

    def _emit(
        self, label, confidence, margin, *, final, reason, completed=True
    ) -> StreamingDecision:
        decision = StreamingDecision(
            label=label,
            confidence=confidence,
            margin=margin,
            t_emitted=self.transform.n,
            final=final,
            reason=reason,
            completed=completed,
        )
        self.decision = decision
        if self.metrics is not None and final:
            self.metrics.gauge("streaming.emit_t", float(decision.t_emitted))
            if decision.early:
                self.metrics.counter("streaming.early_emits")
        return decision

    def append(self, chunk) -> StreamingDecision:
        """Feed a chunk; return the current (possibly final) decision."""
        if self.decision.final:
            return self.decision
        started = time.perf_counter()
        chunk = np.asarray(chunk, dtype=np.float64)
        self.transform.append(chunk)
        if self.tracker is not None:
            self.tracker.charge(int(chunk.size))
        if self.metrics is not None:
            self.metrics.counter("streaming.appends")
        if not self.transform.ready:
            decision = self._emit(
                None, 0.0, 0.0, final=False, reason="pending"
            )
        else:
            label, confidence, margin = self._evaluate()
            if self.metrics is not None:
                self.metrics.gauge("streaming.margin", margin)
            if self.drift_detector is not None:
                self.drift_detector.update(margin)
            if self.tracker is not None and self.tracker.exhausted:
                decision = self._emit(
                    label,
                    confidence,
                    margin,
                    final=True,
                    reason="budget",
                    completed=False,
                )
            elif (
                margin >= self.margin_threshold
                and self.transform.n >= self.min_samples
            ):
                decision = self._emit(
                    label, confidence, margin, final=True, reason="margin"
                )
            else:
                decision = self._emit(
                    label, confidence, margin, final=False, reason="pending"
                )
        if self.metrics is not None:
            self.metrics.observe(
                "streaming.append_seconds", time.perf_counter() - started
            )
        return decision

    def finalize(self) -> StreamingDecision:
        """Close the stream: latch an end-of-stream decision.

        If a decision was already final (early emission or budget), it is
        returned unchanged. Otherwise the predictor runs on everything
        seen; with the full series this equals the batch prediction.
        """
        if self.decision.final:
            return self.decision
        if not self.transform.ready:
            raise ValidationError(
                "cannot finalize: the series is shorter than the longest "
                f"shapelet ({self.transform.n} samples seen)"
            )
        label, confidence, margin = self._evaluate()
        return self._emit(
            label, confidence, margin, final=True, reason="end_of_stream"
        )


__all__ = [
    "EarlyClassifier",
    "MarginDriftDetector",
    "REASONS",
    "StreamingDecision",
]
