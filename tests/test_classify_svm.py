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


def _liblinear_fit(X, y, C, max_iter, eps, fit_bias, rng):
    """liblinear's ``solve_l2r_l1l2_svc`` (L1 loss, shrinking), transcribed.

    Kept line by line on numpy arrays and scalars as the oracle:
    ``LinearSVM.fit`` restates it on Python floats and a preallocated
    update buffer, and must fit the same bits. Two departures from the C
    source: ``rand() % (active_size - i)`` swaps become one
    ``rng.shuffle`` of the active prefix, and rows with ``QD[i] <= 0``
    (which liblinear would divide by) are skipped.
    """
    bias_value = _bias_value(X, fit_bias)
    if fit_bias:
        X = np.hstack([X, np.full((X.shape[0], 1), bias_value)])
    l, w_size = X.shape
    QD = np.einsum("ij,ij->i", X, X)
    alpha = np.zeros(l)
    w = np.zeros(w_size)
    index = np.arange(l)
    active_size = l
    PGmax_old = np.inf
    PGmin_old = -np.inf
    it = 0
    while it < max_iter:
        PGmax_new = -np.inf
        PGmin_new = np.inf
        rng.shuffle(index[:active_size])
        s = 0
        while s < active_size:
            i = index[s]
            if QD[i] <= 0.0:
                s += 1
                continue
            G = y[i] * (X[i] @ w) - 1
            PG = 0.0
            if alpha[i] == 0:
                if G > PGmax_old:
                    active_size -= 1
                    index[s], index[active_size] = index[active_size], index[s]
                    continue
                elif G < 0:
                    PG = G
            elif alpha[i] == C:
                if G < PGmin_old:
                    active_size -= 1
                    index[s], index[active_size] = index[active_size], index[s]
                    continue
                elif G > 0:
                    PG = G
            else:
                PG = G
            PGmax_new = max(PGmax_new, PG)
            PGmin_new = min(PGmin_new, PG)
            if abs(PG) > 1.0e-12:
                alpha_old = alpha[i]
                alpha[i] = min(max(alpha[i] - G / QD[i], 0.0), C)
                d = (alpha[i] - alpha_old) * y[i]
                w += d * X[i]
            s += 1
        it += 1
        if PGmax_new - PGmin_new <= eps:
            if active_size == l:
                break
            active_size = l
            PGmax_old = np.inf
            PGmin_old = -np.inf
            continue
        PGmax_old = PGmax_new
        PGmin_old = PGmin_new
        if PGmax_old <= 0:
            PGmax_old = np.inf
        if PGmin_old >= 0:
            PGmin_old = -np.inf
    if fit_bias:
        return w[:-1].copy(), float(w[-1] * bias_value), it
    return w.copy(), 0.0, it


def _bias_value(X, fit_bias):
    return max(1.0, float(np.mean(np.abs(X)))) if fit_bias else 1.0


def _primal(X, y, C, coef, intercept, bias_value):
    """Hinge-loss primal objective over the bias-augmented features."""
    w_bias = intercept / bias_value
    margins = y * (X @ coef + intercept)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * (coef @ coef + w_bias * w_bias) + C * hinge


def _converged_fit(X, y, C, fit_bias, epochs=20_000):
    """Plain dual coordinate descent without shrinking, run to a tight gap."""
    bias_value = _bias_value(X, fit_bias)
    if fit_bias:
        X = np.hstack([X, np.full((X.shape[0], 1), bias_value)])
    diag = np.einsum("ij,ij->i", X, X)
    alpha = np.zeros(X.shape[0])
    w = np.zeros(X.shape[1])
    for _ in range(epochs):
        pg_max, pg_min = -np.inf, np.inf
        for i in np.flatnonzero(diag > 0.0):
            G = y[i] * (X[i] @ w) - 1
            PG = min(G, 0.0) if alpha[i] == 0 else max(G, 0.0) if alpha[i] == C else G
            pg_max, pg_min = max(pg_max, PG), min(pg_min, PG)
            new = min(max(alpha[i] - G / diag[i], 0.0), C)
            w += (new - alpha[i]) * y[i] * X[i]
            alpha[i] = new
        if pg_max - pg_min <= 1e-6:
            break
    if fit_bias:
        return w[:-1], float(w[-1] * bias_value)
    return w, 0.0


class TestMatchesLiblinear:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 6),
        C=st.sampled_from([0.01, 1.0, 10.0]),
        fit_bias=st.booleans(),
        n_zero_rows=st.integers(0, 3),
        max_epochs=st.sampled_from([1, 7, 60, 1000]),
    )
    def test_linear_svm_matches_liblinear(
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
        coef, intercept, n_iter = _liblinear_fit(
            X, y, C, max_epochs, 0.1, fit_bias, np.random.default_rng(seed)
        )
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(np.float64(model.intercept_), np.float64(intercept))
        assert model.n_iter_ == n_iter

    def test_one_vs_rest_shares_generator_across_classes(self, rng):
        centers = rng.normal(size=(8, 5)) * 3.0
        X = np.vstack([rng.normal(size=(20, 5)) + c for c in centers])
        y = np.repeat(np.arange(8), 20)
        model = OneVsRestSVM(C=1.0, seed=11).fit(X, y)
        shared = np.random.default_rng(11)
        assert len(model._models) == 8
        for cls, fitted in zip(range(8), model._models):
            coef, intercept, n_iter = _liblinear_fit(
                X, np.where(y == cls, 1.0, -1.0), 1.0, 1000, 0.1, True, shared
            )
            assert np.array_equal(fitted.coef_, coef)
            assert np.array_equal(np.float64(fitted.intercept_), np.float64(intercept))
            assert fitted.n_iter_ == n_iter


class TestConvergence:
    @pytest.mark.parametrize("C", [0.01, 1.0, 10.0])
    @pytest.mark.parametrize("fit_bias", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_early_stop_is_near_optimal(self, seed, C, fit_bias):
        """A fit that stops on the rule is within 1% of the optimum.

        Checked at ``tol=1e-3``: the default 0.1 bounds the projected
        gradients, not the objective, and its stop sits further from the
        optimum the larger C is (0.5-3.6% on the eight fit_many machines
        at C = 1). A stop on a shrunk set, or a lost coordinate, shows at
        any ``tol``.
        """
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 4)) * 2.0
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=40) > 0.3, 1.0, -1.0)
        model = LinearSVM(
            C=C, max_epochs=20_000, tol=1e-3, fit_bias=fit_bias, seed=seed
        ).fit(X, y)
        assert model.n_iter_ < model.max_epochs
        bias_value = _bias_value(X, fit_bias)
        coef, intercept = _converged_fit(X, y, C, fit_bias)
        best = _primal(X, y, C, coef, intercept, bias_value)
        fitted = _primal(X, y, C, model.coef_, model.intercept_, bias_value)
        assert fitted <= best * 1.01
