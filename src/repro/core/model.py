"""The fitted half of a shapelet pipeline: transform → scaler → classifier → labels.

IPS and every shapelet-transform baseline classify through the same
downstream stack (the Bake Off protocol: differences in accuracy come
from discovery alone). :class:`ShapeletModel` is that stack once fitted,
and :class:`ShapeletModelPredictor` is the Predictor surface a pipeline
classifier exposes over its ``model_``. :meth:`ShapeletModel.fit` is the
one place the stack is fitted. Serving, artifacts and early
classification read the model, never the classifier's internals.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.classify.scaler import StandardScaler
from repro.core.transform import ShapeletTransform
from repro.exceptions import NotFittedError, ValidationError


class ShapeletModel:
    """Inference-only shapelet pipeline.

    Every call runs ``transform.transform``, then ``scaler.transform``,
    then the inner classifier's method, so its rows are bit-identical to
    the pipeline that was fitted.

    Attributes
    ----------
    transform:
        The fitted :class:`~repro.core.transform.ShapeletTransform` (or,
        for multivariate input, one per dimension behind
        :class:`~repro.multivariate.pipeline.ChannelShapeletTransform`).
    scaler:
        The fitted feature scaler.
    classifier:
        The inner predictor, trained on internal labels ``0..C-1`` (the
        positions of :attr:`classes_`).
    classes_:
        Original-valued class labels, sorted.
    series_length:
        Length of the training series.
    """

    def __init__(
        self,
        transform,
        scaler,
        classifier,
        classes_: np.ndarray,
        series_length: int,
    ) -> None:
        self.transform = transform
        self.scaler = scaler
        self.classifier = classifier
        self.classes_ = classes_
        self.series_length = series_length

    @classmethod
    def fit(
        cls,
        transform,
        dataset,
        classifier,
        classifier_name: str,
        tracer,
    ) -> "ShapeletModel":
        """Fit the stack on ``dataset`` (a ``Dataset`` or ``MultivariateDataset``).

        The ``transform`` stage embeds ``dataset.X``; the ``classify``
        stage fits the scaler on the embedding and ``classifier`` on the
        scaled features and internal labels. Both are stages of the run's
        ``tracer`` (the ``classify`` span's ``classifier`` attribute is
        ``classifier_name``).
        """
        with tracer.stage("transform", n_shapelets=transform.n_features):
            features = transform.transform(dataset.X)
        with tracer.stage("classify", classifier=classifier_name):
            scaler = StandardScaler()
            scaled = scaler.fit_transform(features)
            classifier.fit(scaled, dataset.y)
        return cls(
            transform, scaler, classifier, dataset.classes_, dataset.series_length
        )

    def with_cache(self, cache) -> "ShapeletModel":
        """A copy whose transform is bound to ``cache`` (or to none)."""
        model = copy.copy(self)
        model.transform = self.transform.with_cache(cache)
        return model

    def _features(self, X: np.ndarray) -> np.ndarray:
        return self.scaler.transform(self.transform.transform(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels (in the caller's original label values)."""
        return self.classes_[self.classifier.predict(self._features(X))]

    def _scores(self, X: np.ndarray, method: str) -> np.ndarray:
        """The inner classifier's score surface on the scaled features.

        Every final classifier sees all internal labels at fit time, so
        its columns already follow :attr:`classes_` — no re-indexing.
        """
        scores = np.asarray(
            getattr(self.classifier, method)(self._features(X)), dtype=np.float64
        )
        if scores.shape[1] != self.classes_.size:
            raise ValidationError(
                f"inner classifier produced {scores.shape[1]} columns for "
                f"{self.classes_.size} classes"
            )
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-class probabilities, ``(M, C)`` in :attr:`classes_` order."""
        return self._scores(X, "predict_proba")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class decision values, ``(M, C)`` in :attr:`classes_` order."""
        return self._scores(X, "decision_function")


def univariate_model(classifier, consumer: str) -> ShapeletModel:
    """The fitted :class:`ShapeletModel` of a classifier that ``consumer``
    (serving, early classification) can run on one ``(N,)`` series.

    Raises :class:`~repro.exceptions.NotFittedError` for an unfitted
    classifier and :class:`~repro.exceptions.ValidationError` when the
    model's transform is not one univariate :class:`ShapeletTransform`
    (a multivariate model embeds ``(M, D, N)`` input).
    """
    model = getattr(classifier, "model_", None)
    if model is None:
        raise NotFittedError(f"{consumer} needs a fitted shapelet-pipeline classifier")
    if not isinstance(model.transform, ShapeletTransform):
        raise ValidationError(
            f"{consumer} runs univariate (N,) series; "
            f"{type(classifier).__name__} embeds with a "
            f"{type(model.transform).__name__}"
        )
    return model


class ShapeletModelPredictor:
    """Predictor surface of a pipeline classifier, read from ``model_``.

    A subclass sets :attr:`model_` at the end of its fit; until then every
    member raises :class:`~repro.exceptions.NotFittedError`.
    """

    #: The fitted :class:`ShapeletModel` (``None`` before ``fit``).
    model_: ShapeletModel | None = None

    def _fitted_model(self) -> ShapeletModel:
        if self.model_ is None:
            raise NotFittedError("call fit before predict")
        return self.model_

    @property
    def classes_(self) -> np.ndarray:
        """Original-valued class labels, sorted (Predictor contract)."""
        return self._fitted_model().classes_

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Shapelet-transform features for ``X`` (unscaled)."""
        return self._fitted_model().transform.transform(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels (in the caller's original label values)."""
        return self._fitted_model().predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-class probabilities, ``(M, C)`` in :attr:`classes_` order."""
        return self._fitted_model().predict_proba(X)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class decision values, ``(M, C)`` in :attr:`classes_` order."""
        return self._fitted_model().decision_function(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy against original-valued labels."""
        from repro.classify.metrics import accuracy_score

        y = np.asarray(y, dtype=np.int64)
        if not np.all(np.isin(np.unique(y), self.classes_)):
            raise ValidationError("test labels contain classes unseen in training")
        return accuracy_score(y, self.predict(X))
