"""Tests for repro.classify.svm: dual coordinate descent linear SVM."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.svm import LinearSVM, OneVsRestSVM
from repro.exceptions import NotFittedError, ValidationError


def _separable(rng, n=60, d=4, margin=2.0):
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    scores = X @ w
    y = np.where(scores >= 0, 1.0, -1.0)
    X += margin * 0.5 * y[:, None] * w  # push classes apart
    return X, y


class TestLinearSVM:
    def test_separable_data_perfect_train_accuracy(self, rng):
        X, y = _separable(rng)
        model = LinearSVM(C=10.0, seed=0).fit(X, y)
        assert np.all(model.predict(X) == y)

    def test_decision_function_sign_matches_predict(self, rng):
        X, y = _separable(rng)
        model = LinearSVM(seed=0).fit(X, y)
        scores = model.decision_function(X)
        assert np.all((scores >= 0) == (model.predict(X) == 1))

    def test_margin_larger_with_small_C_regularization(self, rng):
        X, y = _separable(rng)
        strong = LinearSVM(C=0.001, seed=0).fit(X, y)
        weak = LinearSVM(C=100.0, seed=0).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_bias_learned(self, rng):
        X = rng.normal(size=(50, 3)) + 10.0  # shifted data needs a bias
        y = np.where(X[:, 0] > 10.0, 1.0, -1.0)
        model = LinearSVM(C=10.0, seed=0).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_rejects_non_pm1_labels(self, rng):
        with pytest.raises(ValidationError):
            LinearSVM().fit(rng.normal(size=(4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))

    def test_rejects_bad_c(self):
        with pytest.raises(ValidationError):
            LinearSVM(C=0.0)

    def test_unfitted_rejected(self, rng):
        with pytest.raises(NotFittedError):
            LinearSVM().decision_function(rng.normal(size=(2, 3)))

    def test_deterministic_with_seed(self, rng):
        X, y = _separable(rng)
        a = LinearSVM(seed=7).fit(X, y)
        b = LinearSVM(seed=7).fit(X, y)
        assert np.allclose(a.coef_, b.coef_)


class TestOneVsRestSVM:
    def test_binary_passthrough(self, rng):
        X, y_pm = _separable(rng)
        y = np.where(y_pm > 0, 3, 8)  # arbitrary labels
        model = OneVsRestSVM(C=10.0, seed=0).fit(X, y)
        assert set(np.unique(model.predict(X))).issubset({3, 8})
        assert model.score(X, y) > 0.95

    def test_three_class_blobs(self, rng):
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        X = np.vstack([rng.normal(size=(30, 2)) * 0.5 + c for c in centers])
        y = np.repeat([10, 20, 30], 30)
        model = OneVsRestSVM(C=10.0, seed=0).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_decision_function_shape(self, rng):
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        X = np.vstack([rng.normal(size=(10, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 10)
        model = OneVsRestSVM(seed=0).fit(X, y)
        assert model.decision_function(X).shape == (30, 3)

    def test_single_class_degenerates_gracefully(self, rng):
        X = rng.normal(size=(5, 3))
        model = OneVsRestSVM(seed=0).fit(X, np.full(5, 7))
        assert np.all(model.predict(X) == 7)

    def test_unfitted_rejected(self, rng):
        with pytest.raises(NotFittedError):
            OneVsRestSVM().predict(rng.normal(size=(2, 3)))


def _reference_fit(X, y, C, max_epochs, tol, fit_bias, rng):
    """The coordinate loop stated plainly, on numpy arrays and scalars.

    Kept verbatim as the oracle: ``LinearSVM.fit`` restates it on Python
    floats and a preallocated update buffer, and must fit the same bits.
    """
    bias_value = 1.0
    if fit_bias:
        bias_value = max(1.0, float(np.mean(np.abs(X))))
        X = np.hstack([X, np.full((X.shape[0], 1), bias_value)])
    n, d = X.shape
    diag = np.einsum("ij,ij->i", X, X)
    alpha = np.zeros(n)
    w = np.zeros(d)
    indices = np.arange(n)
    for _ in range(max_epochs):
        rng.shuffle(indices)
        max_violation = 0.0
        for i in indices:
            if diag[i] <= 0.0:
                continue
            gradient = y[i] * (X[i] @ w) - 1.0
            # Projected gradient respecting the box [0, C].
            if alpha[i] <= 0.0:
                projected = min(gradient, 0.0)
            elif alpha[i] >= C:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            if projected == 0.0:
                continue
            max_violation = max(max_violation, abs(projected))
            new_alpha = min(max(alpha[i] - gradient / diag[i], 0.0), C)
            delta = new_alpha - alpha[i]
            if delta != 0.0:
                w += delta * y[i] * X[i]
                alpha[i] = new_alpha
        if max_violation < tol:
            break
    if fit_bias:
        return w[:-1].copy(), float(w[-1] * bias_value)
    return w.copy(), 0.0


class TestBitIdenticalToReferenceLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 6),
        C=st.sampled_from([0.01, 1.0, 10.0]),
        fit_bias=st.booleans(),
        n_zero_rows=st.integers(0, 3),
        max_epochs=st.sampled_from([1, 7, 60]),
    )
    def test_linear_svm_matches_reference(
        self, seed, n, d, C, fit_bias, n_zero_rows, max_epochs
    ):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        X[y > 0] += rng.uniform(0.0, 2.0)
        # All-zero rows have diag == 0 without the bias column: skipped.
        X[: min(n_zero_rows, n)] = 0.0
        model = LinearSVM(
            C=C, max_epochs=max_epochs, fit_bias=fit_bias, seed=seed
        ).fit(X, y)
        coef, intercept = _reference_fit(
            X, y, C, max_epochs, 1e-4, fit_bias, np.random.default_rng(seed)
        )
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(np.float64(model.intercept_), np.float64(intercept))

    def test_one_vs_rest_shares_generator_across_classes(self, rng):
        centers = rng.normal(size=(8, 5)) * 3.0
        X = np.vstack([rng.normal(size=(20, 5)) + c for c in centers])
        y = np.repeat(np.arange(8), 20)
        model = OneVsRestSVM(C=1.0, seed=11).fit(X, y)
        shared = np.random.default_rng(11)
        assert len(model._models) == 8
        for cls, fitted in zip(range(8), model._models):
            coef, intercept = _reference_fit(
                X, np.where(y == cls, 1.0, -1.0), 1.0, 200, 1e-4, True, shared
            )
            assert np.array_equal(fitted.coef_, coef)
            assert np.array_equal(np.float64(fitted.intercept_), np.float64(intercept))
