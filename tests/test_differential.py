"""Differential matrix: one fitted model, every way of asking it.

IPS and the BASE baseline classify through the same
:class:`~repro.core.model.ShapeletModel`. For each of them, in every
request mode (label, proba, scores), the offline answer, the answer
served by :class:`~repro.serve.InferenceService` one request per
microbatch, the answer of one microbatch of all ``M`` rows, and (IPS
only) the answers of a loaded artifact are bit-equal. Both classifiers
refuse to score unseen labels and build an early classifier.

The multivariate row runs offline only (serving ``(D, N)`` requests is
out of scope): each row asked alone answers the bits of the batch in
every mode, labels follow the scores, and the labels match a digest
pinned before the classifier moved onto the shared model.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import MPBaseline
from repro.core.config import IPSConfig
from repro.core.pipeline import IPSClassifier
from repro.datasets import make_multivariate_planted
from repro.exceptions import ValidationError
from repro.multivariate import MultivariateIPSClassifier
from repro.serve import InferenceService, ServeConfig, load_artifact, save_artifact
from repro.streaming import EarlyClassifier

pytestmark = [pytest.mark.serve, pytest.mark.streaming]

#: Request mode -> the Predictor method that answers it offline.
MODES = {"label": "predict", "proba": "predict_proba", "scores": "decision_function"}


@pytest.fixture(scope="module")
def requests_X(tiny_three_class):
    rng = np.random.default_rng(0)
    return tiny_three_class.X + 0.05 * rng.normal(size=tiny_three_class.X.shape)


@pytest.fixture(scope="module")
def live(tiny_three_class):
    return {
        "IPS": IPSClassifier(IPSConfig(k=3, q_n=6, q_s=3, seed=7)).fit_dataset(
            tiny_three_class
        ),
        "BASE": MPBaseline(k=3).fit_dataset(tiny_three_class),
    }


@pytest.fixture(scope="module")
def offline(live, requests_X):
    """The live classifiers' offline answers, by method and mode."""
    return {
        method: {mode: getattr(clf, name)(requests_X) for mode, name in MODES.items()}
        for method, clf in live.items()
    }


@pytest.fixture(
    scope="module",
    params=[("IPS", "live"), ("IPS", "artifact"), ("BASE", "live")],
    ids=lambda p: "-".join(p),
)
def source(request, live, tmp_path_factory):
    """``(method, classifier)``: a live classifier or a loaded artifact."""
    method, kind = request.param
    classifier = live[method]
    if kind == "artifact":
        path = tmp_path_factory.mktemp("artifact") / "model"
        save_artifact(classifier, path)
        classifier = load_artifact(path)
        assert classifier._dataset is None
    return method, classifier


@pytest.mark.parametrize("mode", MODES)
class TestOneModel:
    def test_offline(self, source, offline, requests_X, mode):
        method, classifier = source
        answer = getattr(classifier, MODES[mode])(requests_X)
        np.testing.assert_array_equal(answer, offline[method][mode], strict=True)

    def test_served_one_request_per_microbatch(
        self, source, offline, requests_X, mode
    ):
        method, classifier = source
        config = ServeConfig(queue_depth=len(requests_X), max_batch=1)
        with InferenceService(classifier, config) as service:
            answer = getattr(service, MODES[mode])(requests_X)
            stats = service.stats()
        np.testing.assert_array_equal(answer, offline[method][mode], strict=True)
        assert stats["batches"] == stats["completed"] == len(requests_X)
        assert stats["serial_fallbacks"] == 0

    def test_served_one_microbatch_of_all_rows(
        self, source, offline, requests_X, mode
    ):
        method, classifier = source
        answer = InferenceService(classifier)._compute_matrix(requests_X, mode)
        np.testing.assert_array_equal(answer, offline[method][mode], strict=True)


class TestSharedSurface:
    def test_score_rejects_unseen_labels(self, source, requests_X):
        _method, classifier = source
        y = np.full(len(requests_X), classifier.classes_.max() + 1)
        with pytest.raises(ValidationError, match="unseen"):
            classifier.score(requests_X, y)

    def test_early_classifier_builds(self, source):
        _method, classifier = source
        early = EarlyClassifier.from_classifier(classifier)
        assert early.predictor is classifier.model_.classifier
        np.testing.assert_array_equal(early.classes, classifier.classes_)


#: SHA-256 of the multivariate classifier's int64 labels on
#: ``mv_requests``, as its private transform -> scaler -> SVM stack
#: predicted them.
MULTIVARIATE_LABELS_SHA256 = (
    "28b5e44ba3c5e81de92dc3c8830faa6c05632a00cfa7f4ac1d74f0a967a31c25"
)


@pytest.fixture(scope="module")
def multivariate():
    return make_multivariate_planted(3, 18, 3, 64, informative_dimensions=2, seed=11)


@pytest.fixture(scope="module")
def mv_classifier(multivariate):
    config = IPSConfig(k=2, q_n=6, q_s=3, seed=7)
    return MultivariateIPSClassifier(config).fit_dataset(multivariate)


@pytest.fixture(scope="module")
def mv_requests(multivariate):
    # Noisy enough that the labels are not just the training labels.
    rng = np.random.default_rng(0)
    return multivariate.X + rng.normal(size=multivariate.X.shape)


class TestMultivariateRow:
    @pytest.mark.parametrize("mode", MODES)
    def test_offline_row_alone_equals_batch(self, mv_classifier, mv_requests, mode):
        ask = getattr(mv_classifier, MODES[mode])
        alone = np.concatenate([ask(mv_requests[i : i + 1]) for i in range(len(mv_requests))])
        np.testing.assert_array_equal(alone, ask(mv_requests), strict=True)

    def test_labels_follow_scores(self, mv_classifier, mv_requests):
        labels = mv_classifier.predict(mv_requests)
        for method in ("predict_proba", "decision_function"):
            scores = getattr(mv_classifier, method)(mv_requests)
            assert scores.shape == (len(mv_requests), mv_classifier.classes_.size)
            np.testing.assert_array_equal(
                mv_classifier.classes_[np.argmax(scores, axis=1)], labels
            )

    def test_labels_match_pinned_digest(self, mv_classifier, mv_requests):
        labels = np.ascontiguousarray(mv_classifier.predict(mv_requests), dtype=np.int64)
        assert hashlib.sha256(labels.tobytes()).hexdigest() == MULTIVARIATE_LABELS_SHA256

    def test_score_rejects_unseen_labels(self, mv_classifier, mv_requests):
        y = np.full(len(mv_requests), mv_classifier.classes_.max() + 1)
        with pytest.raises(ValidationError, match="unseen"):
            mv_classifier.score(mv_requests, y)
