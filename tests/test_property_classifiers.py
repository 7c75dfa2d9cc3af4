"""Hypothesis property tests for the classifier substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.classify.metrics import accuracy_score, confusion_matrix
from repro.classify.naive_bayes import GaussianNB
from repro.classify.scaler import StandardScaler
from repro.classify.svm import LinearSVM, OneVsRestSVM
from repro.classify.tree import DecisionTree


def _blobs(seed: int, n: int, d: int, gap: float):
    """Two Gaussian blobs of ``n`` points each, means ``gap`` apart per axis."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(size=(n, d)), rng.normal(size=(n, d)) + gap])
    y = np.repeat([0, 1], n)
    return X, y


_BLOB_ARGS = {
    "seed": st.integers(0, 10_000),
    "n": st.integers(6, 30),
    "d": st.integers(2, 6),
    "gap": st.floats(3.0, 10.0),
}


def _blob_problem(data: st.DataObject):
    """Two separated Gaussian blobs with a random seed/size/gap."""
    return _blobs(**{name: data.draw(strategy) for name, strategy in _BLOB_ARGS.items()})


@settings(max_examples=20, deadline=None)
@given(**_BLOB_ARGS)
@example(seed=38, n=6, d=2, gap=3.0)
def test_svm_separates_separated_blobs(seed, n, d, gap):
    X, y = _blobs(seed, n, d, gap)
    C = 10.0
    # Small blobs at the minimum gap occasionally overlap (the draw
    # controls the blob *means*, not the samples); only actually
    # separated samples state the property.
    direction = X[y == 1].mean(axis=0) - X[y == 0].mean(axis=0)
    projected = X @ direction
    assume(projected[y == 1].min() > projected[y == 0].max())
    # Separated is not enough: the soft-margin optimum may trade one
    # misclassified point for a wider margin (seed 38 above). It cannot
    # when a zero-loss separator is cheaper than one misclassification.
    # w_sep is the mean-direction separator on the bias-augmented
    # features the solver sees, scaled to unit functional margin; its
    # objective is ½‖w_sep‖², and any misclassified point alone costs
    # >= C. The bound C/2 leaves room for the epoch cap.
    bias = max(1.0, float(np.mean(np.abs(X))))
    threshold = (projected[y == 1].min() + projected[y == 0].max()) / 2.0
    w_sep = np.append(direction, -threshold / bias)
    signs = np.where(y == 1, 1.0, -1.0)
    margins = signs * (np.hstack([X, np.full((X.shape[0], 1), bias)]) @ w_sep)
    w_sep /= margins.min()
    assume(0.5 * float(w_sep @ w_sep) < C / 2.0)
    model = OneVsRestSVM(C=C, seed=0).fit(X, y)
    assert model.score(X, y) == 1.0


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_svm_prediction_invariant_to_duplicate_features(data):
    X, y = _blob_problem(data)
    pm1 = np.where(y == 1, 1.0, -1.0)
    base = LinearSVM(C=1.0, seed=0).fit(X, pm1).predict(X)
    doubled = LinearSVM(C=1.0, seed=0).fit(np.hstack([X, X]), pm1).predict(
        np.hstack([X, X])
    )
    # Duplicating features rescales the geometry but must not break
    # separability of cleanly separated blobs.
    assert np.mean(base == doubled) >= 0.9


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_tree_perfectly_memorizes_distinct_points(data):
    seed = data.draw(st.integers(0, 10_000))
    n = data.draw(st.integers(4, 25))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 3, size=n)
    tree = DecisionTree(seed=0).fit(X, y)
    # Distinct continuous points: an unpruned CART reaches purity.
    assert accuracy_score(y, tree.predict(X)) == 1.0


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_nb_probabilities_valid(data):
    X, y = _blob_problem(data)
    model = GaussianNB().fit(X, y)
    probs = model.predict_proba(X)
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scaler_round_trip_statistics(data):
    seed = data.draw(st.integers(0, 10_000))
    n = data.draw(st.integers(3, 40))
    d = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    X = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.5, 3), size=(n, d))
    Z = StandardScaler().fit_transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
    stds = Z.std(axis=0)
    assert np.all((np.isclose(stds, 1.0, atol=1e-9)) | (stds == 0.0))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_confusion_matrix_row_sums(data):
    n = data.draw(st.integers(1, 50))
    k = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    y_true = rng.integers(0, k, size=n)
    y_pred = rng.integers(0, k, size=n)
    M = confusion_matrix(y_true, y_pred, n_classes=k)
    assert M.sum() == n
    row_sums = M.sum(axis=1)
    for cls in range(k):
        assert row_sums[cls] == np.sum(y_true == cls)
    assert accuracy_score(y_true, y_pred) == np.trace(M) / n
