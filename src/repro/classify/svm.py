"""Linear SVM trained by dual coordinate descent (Hsieh et al., ICML 2008).

This is the algorithm behind liblinear: solve the dual of the
L2-regularized L1-loss (hinge) SVM

    min_w  (1/2) ||w||^2 + C sum_i max(0, 1 - y_i w . x_i)

by coordinate-wise updates of the box-constrained dual variables
``alpha_i in [0, C]``, maintaining ``w = sum_i alpha_i y_i x_i``. A bias
term is handled by augmenting each sample with a constant feature.
:meth:`LinearSVM.fit` follows liblinear's ``solve_l2r_l1l2_svc``,
including its shrinking of coordinates stuck at a bound and its
stopping rule: stop when the spread of the projected gradient,
PGmax - PGmin, is at most ``tol`` over all coordinates.

Multi-class problems use one-vs-rest with decision-value argmax
(:class:`OneVsRestSVM`), which is what the paper's final classification
stage needs ("we adopt SVM with a linear kernel", Section III-E).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.types import ParamsMixin, PredictorMixin


class LinearSVM(ParamsMixin):
    """Binary linear SVM (labels must be -1 / +1).

    Parameters
    ----------
    C:
        Soft-margin penalty.
    max_epochs:
        Maximum passes over the active coordinates (liblinear's 1000).
    tol:
        Stop when PGmax - PGmin, the spread of the projected gradient
        over all dual coordinates in one epoch, is at most this
        (liblinear's ``-e``, 0.1 by default).
    fit_bias:
        Learn an intercept via feature augmentation.
    seed:
        Seed for the per-epoch coordinate permutation.

    Attributes
    ----------
    n_iter_:
        Epochs the last ``fit`` ran; below ``max_epochs`` when it stopped
        on the ``tol`` rule.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_epochs: int = 1000,
        tol: float = 0.1,
        fit_bias: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if C <= 0:
            raise ValidationError(f"C must be > 0, got {C}")
        self.C = float(C)
        self.max_epochs = int(max_epochs)
        self.tol = float(tol)
        self.fit_bias = bool(fit_bias)
        self.seed = seed
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        """Train on ``(M, d)`` features with labels in {-1, +1}."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValidationError("X must be (M, d) with matching non-empty y")
        if not np.isfinite(X).all():
            raise ValidationError("SVM input contains non-finite values")
        labels = np.unique(y)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValidationError(f"labels must be -1/+1, got {labels}")
        rng = (
            self.seed
            if isinstance(self.seed, np.random.Generator)
            else np.random.default_rng(self.seed)
        )
        bias_value = 1.0
        if self.fit_bias:
            # Scale the augmented column to the feature magnitude so the
            # intercept converges at the same rate as the weights
            # (liblinear's -B option; with value 1 a shifted dataset needs
            # thousands of epochs to move the bias).
            bias_value = max(1.0, float(np.mean(np.abs(X))))
            X = np.hstack([X, np.full((X.shape[0], 1), bias_value)])
        n, d = X.shape
        # liblinear's solve_l2r_l1l2_svc for the L1-loss dual. Each epoch
        # visits the active set ``index[:active]`` in a fresh random
        # order. A coordinate at a bound whose gradient points out of the
        # box by more than last epoch's extreme projected gradient is
        # shrunk: swapped behind the active set and not visited again.
        # When the projected-gradient gap PGmax - PGmin reaches ``tol`` on
        # a shrunk set, the full set is restored and checked once more;
        # the fit stops only when the gap holds on every coordinate.
        # Rows with ``diag <= 0`` (all-zero rows without a bias column)
        # have no step and are skipped.
        #
        # The loop runs one Python step per active coordinate and epoch,
        # so its scalars are Python floats in lists (indexing an array
        # yields a boxed numpy scalar), its clamps are comparisons rather
        # than min/max calls, and its vector update writes into a
        # preallocated buffer.
        rows = list(X)
        diag = np.einsum("ij,ij->i", X, X).tolist()
        labels_pm = y.tolist()
        alpha = [0.0] * n
        C = self.C
        inf = float("inf")
        pg_max_old, pg_min_old = inf, -inf
        w = np.zeros(d)
        step = np.empty(d)
        index = np.arange(n)
        active = n
        n_iter = 0
        while n_iter < self.max_epochs:
            rng.shuffle(index[:active])
            order = index.tolist()
            pg_max, pg_min = -inf, inf
            s = 0
            while s < active:
                i = order[s]
                diag_i = diag[i]
                if diag_i <= 0.0:
                    s += 1
                    continue
                x_i = rows[i]
                y_i = labels_pm[i]
                alpha_i = alpha[i]
                gradient = y_i * float(x_i.dot(w)) - 1.0
                # Projected gradient respecting the box [0, C].
                projected = gradient
                if alpha_i == 0.0:
                    if gradient > pg_max_old:
                        active -= 1
                        order[s], order[active] = order[active], i
                        continue
                    if gradient > 0.0:
                        projected = 0.0
                elif alpha_i == C:
                    if gradient < pg_min_old:
                        active -= 1
                        order[s], order[active] = order[active], i
                        continue
                    if gradient < 0.0:
                        projected = 0.0
                if projected > pg_max:
                    pg_max = projected
                if projected < pg_min:
                    pg_min = projected
                if abs(projected) > 1e-12:
                    new_alpha = alpha_i - gradient / diag_i
                    if new_alpha < 0.0:
                        new_alpha = 0.0
                    elif new_alpha > C:
                        new_alpha = C
                    np.multiply(x_i, (new_alpha - alpha_i) * y_i, out=step)
                    np.add(w, step, out=w)
                    alpha[i] = new_alpha
                s += 1
            index[:] = order
            n_iter += 1
            if pg_max - pg_min <= self.tol:
                if active == n:
                    break
                active = n
                pg_max_old, pg_min_old = inf, -inf
                continue
            pg_max_old = pg_max if pg_max > 0.0 else inf
            pg_min_old = pg_min if pg_min < 0.0 else -inf
        self.n_iter_ = n_iter
        if self.fit_bias:
            self.coef_ = w[:-1].copy()
            self.intercept_ = float(w[-1] * bias_value)
        else:
            self.coef_ = w.copy()
            self.intercept_ = 0.0
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed margins ``w . x + b``.

        Each row's dot product is evaluated on its own (``vecdot``, not a
        BLAS matrix-vector product, whose rounding depends on how many
        rows it gets), so a row scores the same bits in any batch.
        """
        if self.coef_ is None:
            raise NotFittedError("call fit before decision_function")
        X = np.asarray(X, dtype=np.float64)
        return np.vecdot(X, self.coef_) + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels in {-1, +1}."""
        return np.where(self.decision_function(X) >= 0.0, 1, -1).astype(np.int64)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy against -1/+1 labels."""
        from repro.classify.metrics import accuracy_score

        return accuracy_score(np.asarray(y, dtype=np.int64), self.predict(X))


class OneVsRestSVM(PredictorMixin, ParamsMixin):
    """Multi-class linear SVM via one-vs-rest decision-value argmax.

    Accepts arbitrary integer labels; binary problems collapse to a single
    underlying :class:`LinearSVM`. Conforms to the repo-wide
    :class:`repro.types.Predictor` surface: ``decision_function`` is always
    ``(M, C)`` (the binary single-model score ``s`` becomes the column pair
    ``[-s, s]``), and ``predict_proba`` is the softmax of the decision
    values (via :class:`~repro.types.PredictorMixin`).
    """

    def __init__(
        self,
        C: float = 1.0,
        max_epochs: int = 1000,
        tol: float = 0.1,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.C = C
        self.max_epochs = max_epochs
        self.tol = tol
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self._models: list[LinearSVM] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsRestSVM":
        """Train one binary SVM per class."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            # Degenerate single-class training set: predict that class.
            self._models = []
            return self
        rng = (
            self.seed
            if isinstance(self.seed, np.random.Generator)
            else np.random.default_rng(self.seed)
        )
        self._models = []
        targets = (
            [self.classes_[1]] if self.classes_.size == 2 else list(self.classes_)
        )
        for cls in targets:
            binary = np.where(y == cls, 1.0, -1.0)
            model = LinearSVM(
                C=self.C, max_epochs=self.max_epochs, tol=self.tol, seed=rng
            )
            model.fit(X, binary)
            self._models.append(model)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class decision values, always shape ``(M, C)``.

        Binary problems train a single underlying machine with score
        ``s``; its matrix form is the column pair ``[-s, s]`` (column
        order follows ``classes_``), so argmax, margins, and softmax all
        work uniformly across class counts. The pre-streaming flat
        ``(M,)`` binary shape is gone — see docs/api.md.
        """
        if self.classes_ is None:
            raise NotFittedError("call fit before decision_function")
        X = np.asarray(X, dtype=np.float64)
        if not self._models:
            return np.zeros((X.shape[0], max(1, self.classes_.size)))
        if self.classes_.size == 2:
            scores = self._models[0].decision_function(X)
            return np.column_stack([-scores, scores])
        return np.column_stack([m.decision_function(X) for m in self._models])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted original labels."""
        if self.classes_ is None:
            raise NotFittedError("call fit before predict")
        X = np.asarray(X, dtype=np.float64)
        if not self._models:
            return np.full(X.shape[0], self.classes_[0], dtype=np.int64)
        if self.classes_.size == 2:
            scores = self._models[0].decision_function(X)
            return np.where(scores >= 0.0, self.classes_[1], self.classes_[0]).astype(
                np.int64
            )
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)].astype(np.int64)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on a labelled set."""
        from repro.classify.metrics import accuracy_score

        return accuracy_score(np.asarray(y, dtype=np.int64), self.predict(X))
