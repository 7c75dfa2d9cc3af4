"""Unit tests for the streaming early-classification subsystem.

Covers the three layers of :mod:`repro.streaming` — matcher, transform,
early classifier — plus the chunked-replay drivers in
:mod:`repro.datasets.replay`. The bit-identity *property* (arbitrary
chunkings vs the batch direct kernel) lives in
``tests/test_streaming_property.py``; this module pins the API contract:
readiness, latching, reasons, budgets, metrics, and input validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.budget import Budget
from repro.core.transform import ShapeletTransform
from repro.datasets.replay import iter_chunks, replay_dataset
from repro.exceptions import NotFittedError, ValidationError
from repro.kernels import SeriesCache, direct_min_distance
from repro.obs.metrics import MetricsRegistry
from repro.streaming import (
    REASONS,
    EarlyClassifier,
    MarginDriftDetector,
    StreamingDecision,
    StreamingMatcher,
    StreamingTransform,
)
from repro.types import Shapelet


def direct_row(shapelets, series):
    """The batch anchor: direct-kernel distances over the whole series."""
    queries = [s.values for s in shapelets]
    return direct_min_distance(queries, series[None], cache=SeriesCache())[0]


@pytest.fixture()
def shapelets(rng):
    return [
        Shapelet(values=rng.normal(size=8), label=0),
        Shapelet(values=rng.normal(size=12), label=1),
    ]


class TestStreamingMatcher:
    def test_matches_batch_direct_engine(self, shapelets, random_series):
        matcher = StreamingMatcher(shapelets)
        for chunk in iter_chunks(random_series, 16):
            matcher.append(chunk)
        np.testing.assert_array_equal(
            matcher.distances(), direct_row(shapelets, random_series)
        )

    def test_accepts_raw_arrays_and_scalars(self, rng):
        query = rng.normal(size=4)
        matcher = StreamingMatcher([query])
        for value in rng.normal(size=10):
            matcher.append(value)  # scalar appends
        assert matcher.n == 10
        assert np.isfinite(matcher.distances()).all()

    def test_not_ready_until_longest_shapelet_fits(self, shapelets, rng):
        matcher = StreamingMatcher(shapelets)
        matcher.append(rng.normal(size=9))
        assert not matcher.ready  # longest shapelet is 12 samples
        distances = matcher.distances()
        assert np.isfinite(distances[0]) and np.isinf(distances[1])
        matcher.append(rng.normal(size=3))
        assert matcher.ready
        assert np.isfinite(matcher.distances()).all()

    def test_empty_chunk_is_a_noop(self, shapelets, rng):
        matcher = StreamingMatcher(shapelets)
        matcher.append(rng.normal(size=20))
        before = matcher.distances().copy()
        matcher.append(np.empty(0))
        np.testing.assert_array_equal(matcher.distances(), before)

    def test_snapshot_shape(self, shapelets, rng):
        matcher = StreamingMatcher(shapelets)
        matcher.append(rng.normal(size=20))
        snap = matcher.snapshot()
        assert snap["n_samples"] == 20
        assert snap["n_shapelets"] == 2
        assert snap["ready"] is True
        assert snap["windows_scored"] == [13, 9]

    @pytest.mark.parametrize(
        "bad", [[], [np.empty(0)], [np.zeros((2, 3))]], ids=["none", "empty", "2d"]
    )
    def test_rejects_bad_shapelets(self, bad):
        with pytest.raises(ValidationError):
            StreamingMatcher(bad)

    def test_rejects_matrix_chunk(self, shapelets):
        matcher = StreamingMatcher(shapelets)
        with pytest.raises(ValidationError):
            matcher.append(np.zeros((2, 5)))


class TestStreamingTransform:
    def test_matches_batch_direct_engine(self, shapelets, random_series):
        stream = StreamingTransform(shapelets)
        for chunk in iter_chunks(random_series, 7):
            features = stream.append(chunk)
        batch = direct_row(shapelets, random_series)
        np.testing.assert_array_equal(features, batch)
        np.testing.assert_array_equal(stream.features, batch)

    def test_from_transform(self, shapelets, random_series):
        stream = StreamingTransform.from_transform(ShapeletTransform(shapelets))
        for chunk in iter_chunks(random_series, 32):
            stream.append(chunk)
        np.testing.assert_array_equal(
            stream.features, direct_row(shapelets, random_series)
        )

    def test_from_transform_rejects_unfitted(self):
        with pytest.raises(ValidationError):
            StreamingTransform.from_transform(ShapeletTransform())

    def test_from_transform_rejects_dtw(self, shapelets):
        batch = ShapeletTransform(shapelets, metric="dtw")
        with pytest.raises(ValidationError, match="euclidean"):
            StreamingTransform.from_transform(batch)

    def test_n_features(self, shapelets):
        assert StreamingTransform(shapelets).n_features == 2


class TestMarginDriftDetector:
    def test_latches_on_margin_collapse(self):
        detector = MarginDriftDetector(window=8, ratio=0.5)
        for _ in range(4):
            detector.update(10.0)
        for _ in range(4):
            detector.update(1.0)
        assert detector.drifted
        # Latched: recovering margins do not clear the flag.
        for _ in range(8):
            detector.update(10.0)
        assert detector.drifted

    def test_stable_margins_do_not_drift(self):
        detector = MarginDriftDetector(window=8)
        for _ in range(32):
            assert not detector.update(5.0)

    def test_ignores_non_finite_margins(self):
        detector = MarginDriftDetector(window=4)
        detector.update(float("inf"))
        detector.update(float("nan"))
        assert len(detector._margins) == 0

    @pytest.mark.parametrize("window", [2, 7])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValidationError):
            MarginDriftDetector(window=window)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValidationError):
            MarginDriftDetector(ratio=1.5)


class TestEarlyClassifier:
    def test_from_classifier_end_of_stream_equals_batch(
        self, frozen_classifier, tiny_two_class
    ):
        for row in tiny_two_class.X[:6]:
            early = EarlyClassifier.from_classifier(
                frozen_classifier, margin_threshold=float("inf")
            )
            for chunk in iter_chunks(row, 16):
                decision = early.append(chunk)
            assert not decision.final  # inf threshold: never early
            decision = early.finalize()
            assert decision.final and decision.reason == "end_of_stream"
            assert not decision.early
            batch = int(frozen_classifier.predict(row.reshape(1, -1))[0])
            assert decision.label == batch

    def test_early_emission_latches(self, frozen_classifier, tiny_two_class):
        early = EarlyClassifier.from_classifier(
            frozen_classifier, margin_threshold=0.0
        )
        row = tiny_two_class.X[0]
        decision = early.append(row[:40])
        assert decision.final and decision.reason == "margin"
        assert decision.early and decision.t_emitted == 40
        # Later appends return the latched decision unchanged.
        assert early.append(row[40:]) is decision
        assert early.finalize() is decision

    def test_min_samples_blocks_early_emission(
        self, frozen_classifier, tiny_two_class
    ):
        row = tiny_two_class.X[0]
        early = EarlyClassifier.from_classifier(
            frozen_classifier, margin_threshold=0.0, min_samples=row.size
        )
        decision = early.append(row[:-1])
        assert not decision.final
        decision = early.append(row[-1:])
        assert decision.final and decision.reason == "margin"

    def test_budget_forces_anytime_decision(
        self, frozen_classifier, tiny_two_class
    ):
        row = tiny_two_class.X[0]
        early = EarlyClassifier.from_classifier(
            frozen_classifier,
            margin_threshold=float("inf"),
            budget=Budget(max_candidates=41),
        )
        decision = early.append(row[:40])
        assert not decision.final
        decision = early.append(row[40:44])
        assert decision.final and decision.reason == "budget"
        assert not decision.completed and not decision.early
        assert decision.label is not None

    def test_metrics_recorded(self, frozen_classifier, tiny_two_class):
        metrics = MetricsRegistry()
        early = EarlyClassifier.from_classifier(
            frozen_classifier, margin_threshold=0.0, metrics=metrics
        )
        early.append(tiny_two_class.X[0])
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["streaming.appends"] == 1
        assert snapshot["counters"]["streaming.early_emits"] == 1
        assert snapshot["gauges"]["streaming.emit_t"] == tiny_two_class.X.shape[1]

    def test_finalize_before_ready_raises(self, frozen_classifier):
        early = EarlyClassifier.from_classifier(frozen_classifier)
        early.append(np.zeros(2))
        with pytest.raises(ValidationError, match="shorter"):
            early.finalize()

    def test_rejects_non_predictor(self, shapelets):
        with pytest.raises(ValidationError, match="Predictor"):
            EarlyClassifier(object(), shapelets)

    def test_rejects_negative_threshold(self, frozen_classifier):
        with pytest.raises(ValidationError):
            EarlyClassifier.from_classifier(
                frozen_classifier, margin_threshold=-1.0
            )

    def test_from_classifier_rejects_unfitted(self):
        from repro.core.config import IPSConfig
        from repro.core.pipeline import IPSClassifier

        with pytest.raises(NotFittedError):
            EarlyClassifier.from_classifier(IPSClassifier(IPSConfig()))

    def test_from_classifier_rejects_multivariate(self, multivariate_classifier):
        with pytest.raises(ValidationError, match="ChannelShapeletTransform"):
            EarlyClassifier.from_classifier(multivariate_classifier)

    def test_labels_are_original_class_values(self, rng):
        """A predictor trained on internal 0..C-1 labels emits originals."""
        from repro.core.config import IPSConfig
        from repro.core.pipeline import IPSClassifier
        from repro.datasets.generators import make_planted_dataset
        from repro.ts.series import Dataset

        dataset = make_planted_dataset(2, 10, 60, seed=3, name="relabel")
        shifted = Dataset(
            X=dataset.X,
            y=np.where(dataset.classes_[dataset.y] == 0, 5, 9),
            name="relabel",
        )
        classifier = IPSClassifier(
            IPSConfig(k=2, q_n=6, q_s=3, seed=3)
        ).fit_dataset(shifted)
        early = EarlyClassifier.from_classifier(
            classifier, margin_threshold=float("inf")
        )
        early.append(shifted.X[0])
        decision = early.finalize()
        assert decision.label in (5, 9)

    def test_reasons_constant(self):
        assert REASONS == ("pending", "margin", "budget", "end_of_stream")

    def test_decision_is_frozen(self):
        decision = StreamingDecision(
            label=1,
            confidence=0.9,
            margin=2.0,
            t_emitted=10,
            final=True,
            reason="margin",
        )
        with pytest.raises(AttributeError):
            decision.label = 2


class TestReplay:
    def test_chunks_cover_series_exactly(self, random_series):
        chunks = list(iter_chunks(random_series, 17))
        np.testing.assert_array_equal(np.concatenate(chunks), random_series)
        assert all(c.size <= 17 for c in chunks)

    def test_jitter_is_deterministic_per_seed(self, random_series):
        sizes_a = [c.size for c in iter_chunks(random_series, 9, jitter_seed=4)]
        sizes_b = [c.size for c in iter_chunks(random_series, 9, jitter_seed=4)]
        sizes_c = [c.size for c in iter_chunks(random_series, 9, jitter_seed=5)]
        assert sizes_a == sizes_b
        assert sizes_a != sizes_c
        assert all(1 <= s <= 9 for s in sizes_a)

    def test_jittered_chunks_still_cover_series(self, random_series):
        chunks = list(iter_chunks(random_series, 9, jitter_seed=4))
        np.testing.assert_array_equal(np.concatenate(chunks), random_series)

    def test_rejects_bad_inputs(self, random_series):
        with pytest.raises(ValidationError):
            list(iter_chunks(np.zeros((2, 4))))
        with pytest.raises(ValidationError):
            list(iter_chunks(random_series, 0))

    def test_replay_dataset_row_order_and_seeds(self, rng):
        X = rng.normal(size=(3, 50))
        seen = []

        def consume(i, chunks):
            sizes = [c.size for c in chunks]
            seen.append((i, sizes))
            return i * 10

        results = replay_dataset(X, consume, 8, jitter_seed=100)
        assert results == [0, 10, 20]
        assert [i for i, _ in seen] == [0, 1, 2]
        # Row i streams under seed jitter_seed + i: rows differ...
        assert seen[0][1] != seen[1][1] or seen[1][1] != seen[2][1]
        # ...but the whole replay is reproducible.
        seen_again = []
        replay_dataset(
            X, lambda i, ch: seen_again.append([c.size for c in ch]), 8,
            jitter_seed=100,
        )
        assert [sizes for _, sizes in seen] == seen_again

    def test_replay_dataset_rejects_1d(self, random_series):
        with pytest.raises(ValidationError):
            replay_dataset(random_series, lambda i, ch: None)
