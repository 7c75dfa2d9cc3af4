"""L2-regularized logistic regression via gradient descent.

Used by the LTS baseline (Grabocka et al. 2014 learn shapelets jointly with
a logistic model) and available as a standalone classifier.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.types import ParamsMixin


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegression(ParamsMixin):
    """Binary/multinomial (one-vs-rest) logistic regression.

    Parameters
    ----------
    l2:
        L2 penalty weight (lambda).
    lr:
        Gradient-descent learning rate.
    max_epochs:
        Full-batch gradient steps.
    tol:
        Stop when the gradient norm falls below this.
    """

    def __init__(
        self,
        l2: float = 1e-3,
        lr: float = 0.5,
        max_epochs: int = 500,
        tol: float = 1e-6,
    ) -> None:
        if l2 < 0:
            raise ValidationError(f"l2 must be >= 0, got {l2}")
        self.l2 = float(l2)
        self.lr = float(lr)
        self.max_epochs = int(max_epochs)
        self.tol = float(tol)
        self.classes_: np.ndarray | None = None
        self.coef_: np.ndarray | None = None  # (n_classes_or_1, d)
        self.intercept_: np.ndarray | None = None

    def _fit_binary(self, X: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(self.max_epochs):
            p = sigmoid(X @ w + b)
            error = p - target
            grad_w = X.T @ error / n + self.l2 * w
            grad_b = float(error.mean())
            new_w = w - self.lr * grad_w
            new_b = b - self.lr * grad_b
            if not (np.isfinite(new_w).all() and np.isfinite(new_b)):
                # Diverging step (overflow on extreme feature scales):
                # keep the last finite iterate rather than returning NaN.
                break
            w, b = new_w, new_b
            if np.linalg.norm(grad_w) + abs(grad_b) < self.tol:
                break
        return w, b

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Train (one-vs-rest for more than two classes)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValidationError("X must be (M, d) with matching non-empty y")
        if not np.isfinite(X).all():
            raise ValidationError(
                "logistic regression input contains non-finite values"
            )
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            self.coef_ = np.zeros((1, X.shape[1]))
            self.intercept_ = np.zeros(1)
            return self
        targets = (
            [self.classes_[1]] if self.classes_.size == 2 else list(self.classes_)
        )
        weights, biases = [], []
        for cls in targets:
            w, b = self._fit_binary(X, (y == cls).astype(np.float64))
            weights.append(w)
            biases.append(b)
        self.coef_ = np.vstack(weights)
        self.intercept_ = np.asarray(biases)
        return self

    def _scores(self, X) -> np.ndarray:
        """Linear scores ``w_c . x + b_c``, shape ``(M, n_classes_or_1)``.

        Each row's dot products are evaluated on their own (``vecdot``,
        not a BLAS matrix product, whose rounding depends on how many
        rows it gets), so a row scores the same bits in any batch.
        """
        X = np.asarray(X, dtype=np.float64)
        return np.vecdot(X[:, None, :], self.coef_) + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, shape ``(M, |C|)``."""
        if self.coef_ is None or self.classes_ is None:
            raise NotFittedError("call fit before predict_proba")
        scores = self._scores(X)
        if self.classes_.size == 2:
            p1 = sigmoid(scores[:, 0])
            return np.column_stack([1.0 - p1, p1])
        probs = sigmoid(scores)
        totals = probs.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return probs / totals

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class linear scores, always shape ``(M, C)``.

        Binary models hold one weight vector with score ``s``; the matrix
        form is ``[-s, s]`` in ``classes_`` order, matching the repo-wide
        :class:`repro.types.Predictor` convention.
        """
        if self.coef_ is None or self.classes_ is None:
            raise NotFittedError("call fit before decision_function")
        scores = self._scores(X)
        if self.classes_.size == 2:
            return np.column_stack([-scores[:, 0], scores[:, 0]])
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted original labels."""
        if self.classes_ is None:
            raise NotFittedError("call fit before predict")
        if self.classes_.size < 2:
            X = np.asarray(X, dtype=np.float64)
            return np.full(X.shape[0], self.classes_[0], dtype=np.int64)
        probs = self.predict_proba(X)
        return self.classes_[np.argmax(probs, axis=1)].astype(np.int64)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy against original-valued labels."""
        from repro.classify.metrics import accuracy_score

        return accuracy_score(np.asarray(y, dtype=np.int64), self.predict(X))
