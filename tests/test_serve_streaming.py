"""Streaming-session tests for :class:`repro.serve.StreamingInferenceService`.

The session table must honor the serving disciplines: admission (session
cap + TTL eviction), deadlines, the shared circuit breaker, per-mode
chunk validation — and the batch Predictor surface (``predict`` /
``predict_proba`` / ``decision_function``) must keep working next to the
sessions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    InvalidRequestError,
    RequestFailedError,
    ServiceClosedError,
    SessionLimitError,
    UnknownSessionError,
    ValidationError,
)
from repro.serve import ServeConfig, StreamConfig, StreamingInferenceService
from repro.serve.breaker import OPEN


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture()
def service(frozen_classifier):
    with StreamingInferenceService(frozen_classifier) as svc:
        yield svc


@pytest.fixture()
def clocked(frozen_classifier):
    clock = FakeClock()
    svc = StreamingInferenceService(
        frozen_classifier,
        stream_config=StreamConfig(max_sessions=2, session_ttl_s=10.0),
        clock=clock,
    )
    svc.start()
    yield svc, clock
    svc.stop()


class TestStreamConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sessions": 0},
            {"session_ttl_s": 0.0},
            {"margin_threshold": -1.0},
            {"min_fraction": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            StreamConfig(**kwargs)


class TestSessions:
    def test_stream_series_matches_batch_at_inf_threshold(
        self, service, tiny_two_class
    ):
        rows = tiny_two_class.X[:4]
        batch = service.classifier.predict(rows)
        for i, row in enumerate(rows):
            decision = service.stream_series(
                row, margin_threshold=float("inf")
            )
            assert decision.final and decision.reason == "end_of_stream"
            assert decision.label == int(batch[i])

    def test_chunked_session_lifecycle(self, service, tiny_two_class):
        row = tiny_two_class.X[0]
        session_id = service.open_stream(margin_threshold=float("inf"))
        decision = service.submit_chunk(session_id, row[:50])
        assert not decision.final
        service.submit_chunk(session_id, row[50:])
        decision = service.close_stream(session_id)
        assert decision.final
        # Closed: the id is gone.
        with pytest.raises(UnknownSessionError):
            service.submit_chunk(session_id, row[:5])
        stats = service.stats()["streaming"]
        assert stats["sessions_opened"] == 1
        assert stats["sessions_closed"] == 1
        assert stats["chunks"] == 2
        assert stats["open_sessions"] == 0

    def test_early_emission_counted_once(self, service, tiny_two_class):
        row = tiny_two_class.X[0]
        session_id = service.open_stream(margin_threshold=0.0, min_samples=0)
        decision = service.submit_chunk(session_id, row)
        assert decision.early
        # Feeding a latched session returns the same decision and must
        # not double-count the emission.
        again = service.submit_chunk(session_id, row[:5])
        assert again is decision
        assert service.stats()["streaming"]["early_emits"] == 1

    def test_session_cap(self, clocked):
        svc, _clock = clocked
        svc.open_stream()
        svc.open_stream()
        with pytest.raises(SessionLimitError):
            svc.open_stream()

    def test_ttl_eviction(self, clocked, tiny_two_class):
        svc, clock = clocked
        stale = svc.open_stream()
        clock.advance(11.0)
        fresh = svc.open_stream()  # triggers eviction of the stale one
        with pytest.raises(UnknownSessionError):
            svc.submit_chunk(stale, tiny_two_class.X[0][:8])
        svc.submit_chunk(fresh, tiny_two_class.X[0][:8])
        assert svc.stats()["streaming"]["sessions_expired"] == 1

    def test_deadline_drops_session(self, clocked, tiny_two_class):
        svc, clock = clocked
        session_id = svc.open_stream(deadline_s=5.0)
        svc.submit_chunk(session_id, tiny_two_class.X[0][:8])
        clock.advance(6.0)
        with pytest.raises(DeadlineExceededError):
            svc.submit_chunk(session_id, tiny_two_class.X[0][8:16])
        with pytest.raises(UnknownSessionError):
            svc.submit_chunk(session_id, tiny_two_class.X[0][:4])

    def test_open_breaker_refuses_chunks(self, service, tiny_two_class):
        session_id = service.open_stream()
        for _ in range(service.config.breaker_threshold):
            service.breaker.record_failure()
        assert service.breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            service.submit_chunk(session_id, tiny_two_class.X[0][:8])

    def test_failing_append_trips_breaker(
        self, service, tiny_two_class, monkeypatch
    ):
        session_id = service.open_stream()
        session = service._get_session(session_id)

        def boom(chunk):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(session.early, "append", boom)
        before = service.breaker.stats()["consecutive_failures"]
        with pytest.raises(RequestFailedError, match="kernel exploded"):
            service.submit_chunk(session_id, tiny_two_class.X[0][:8])
        assert service.breaker.stats()["consecutive_failures"] == before + 1

    def test_chunk_validation_repairs_non_finite(self, service):
        session_id = service.open_stream()
        chunk = np.array([1.0, np.nan, np.inf, 2.0])
        service.submit_chunk(session_id, chunk)  # repaired, not refused
        assert service._get_session(session_id).early.transform.n == 4

    def test_strict_validation_refuses_non_finite(self, frozen_classifier):
        with StreamingInferenceService(
            frozen_classifier, ServeConfig(validation="strict")
        ) as svc:
            session_id = svc.open_stream()
            with pytest.raises(InvalidRequestError, match="non-finite"):
                svc.submit_chunk(session_id, np.array([1.0, np.nan]))

    def test_rejects_matrix_chunk(self, service):
        session_id = service.open_stream()
        with pytest.raises(InvalidRequestError):
            service.submit_chunk(session_id, np.zeros((2, 4)))

    def test_stopped_service_refuses_sessions(self, frozen_classifier):
        svc = StreamingInferenceService(frozen_classifier)
        with pytest.raises(ServiceClosedError):
            svc.open_stream()
        svc.start()
        session_id = svc.open_stream()
        svc.stop()
        with pytest.raises(ServiceClosedError):
            svc.submit_chunk(session_id, np.zeros(4))


class TestCalibratedOperatingPoint:
    """The service at margin 2.5 / min fraction 0.7 on a planted split.

    The same operating point ``tests/test_streaming_property.py`` holds
    for :class:`repro.streaming.EarlyClassifier`; here it runs through
    the session table, its config defaults, and ``stream_series``.
    """

    def test_emits_early_and_every_label_equals_batch(self):
        from repro.core.config import IPSConfig
        from repro.core.pipeline import IPSClassifier
        from repro.datasets.generators import make_planted_dataset

        train = make_planted_dataset(2, 16, 120, seed=1, name="calibrated")
        test = make_planted_dataset(2, 30, 120, seed=101, name="calibrated")
        classifier = IPSClassifier(
            IPSConfig(k=3, q_n=6, q_s=3, seed=1)
        ).fit_dataset(train)
        batch = classifier.predict(test.X)
        config = StreamConfig(margin_threshold=2.5, min_fraction=0.7)
        with StreamingInferenceService(
            classifier, stream_config=config
        ) as svc:
            decisions = [svc.stream_series(row, chunk_size=16) for row in test.X]
            stats = svc.stats()["streaming"]
        early = [d for d in decisions if d.early]
        assert len(early) >= 1
        assert all(d.t_emitted < test.series_length for d in early)
        assert stats["early_emits"] == len(early)
        np.testing.assert_array_equal([d.label for d in decisions], batch)


class TestBatchSurface:
    """The Predictor protocol over the service, sessions or not."""

    def test_predict_matrix(self, service, tiny_two_class):
        X = tiny_two_class.X[:5]
        labels = service.predict(X)
        assert labels.shape == (5,) and labels.dtype == np.int64
        np.testing.assert_array_equal(labels, service.classifier.predict(X))

    def test_predict_proba(self, service, tiny_two_class):
        X = tiny_two_class.X[:4]
        proba = service.predict_proba(X)
        assert proba.shape == (4, service.classes_.size)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_decision_function_margin_consistent(self, service, tiny_two_class):
        X = tiny_two_class.X[:4]
        scores = service.decision_function(X)
        assert scores.shape == (4, service.classes_.size)
        np.testing.assert_array_equal(
            service.classes_[np.argmax(scores, axis=1)], service.predict(X)
        )
