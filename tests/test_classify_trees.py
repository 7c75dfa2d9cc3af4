"""Tests for repro.classify: DecisionTree, PCA, RotationForest, KMeans, LogisticRegression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classify.kmeans import KMeans
from repro.classify.logistic import LogisticRegression, sigmoid
from repro.classify.pca import PCA
from repro.classify.rotation_forest import RotationForest
from repro.classify.tree import DecisionTree
from repro.exceptions import NotFittedError, ValidationError


def _blobs(rng, centers, n=20, spread=0.5):
    X = np.vstack([rng.normal(size=(n, len(centers[0]))) * spread + c for c in centers])
    y = np.repeat(np.arange(len(centers)), n)
    return X, y


class TestDecisionTree:
    def test_fits_blobs(self, rng):
        X, y = _blobs(rng, [[0, 0], [5, 5]])
        tree = DecisionTree(seed=0).fit(X, y)
        assert np.all(tree.predict(X) == y)

    def test_max_depth_respected(self, rng):
        X, y = _blobs(rng, [[0, 0], [1, 1], [2, 2], [3, 3]], spread=0.8)
        tree = DecisionTree(max_depth=2, seed=0).fit(X, y)
        assert tree.depth() <= 2

    def test_xor_needs_depth_two(self, rng):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10, dtype=float)
        X += rng.normal(size=X.shape) * 0.05
        y = (X[:, 0].round() != X[:, 1].round()).astype(int)
        tree = DecisionTree(seed=0).fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.95

    def test_arbitrary_labels_round_trip(self, rng):
        X, y01 = _blobs(rng, [[0, 0], [5, 5]])
        y = np.where(y01 == 0, -7, 13)
        tree = DecisionTree(seed=0).fit(X, y)
        assert set(np.unique(tree.predict(X))) == {-7, 13}

    def test_constant_features_give_leaf(self, rng):
        X = np.ones((10, 3))
        y = np.repeat([0, 1], 5)
        tree = DecisionTree(seed=0).fit(X, y)
        assert tree.depth() == 0  # no valid split

    def test_max_features_sqrt(self, rng):
        X, y = _blobs(rng, [[0] * 9, [3] * 9])
        tree = DecisionTree(max_features="sqrt", seed=0).fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.9

    def test_unfitted_rejected(self, rng):
        with pytest.raises(NotFittedError):
            DecisionTree().predict(rng.normal(size=(2, 2)))

    def test_bad_min_samples_rejected(self):
        with pytest.raises(ValidationError):
            DecisionTree(min_samples_split=1)


class TestPCA:
    def test_recovers_dominant_direction(self, rng):
        direction = np.array([3.0, 4.0]) / 5.0
        X = np.outer(rng.normal(size=200), direction) + rng.normal(size=(200, 2)) * 0.05
        pca = PCA(n_components=1).fit(X)
        alignment = abs(pca.components_[0] @ direction)
        assert alignment > 0.99

    def test_full_rotation_preserves_distances(self, rng):
        X = rng.normal(size=(30, 5))
        Z = PCA().fit_transform(X)
        d_orig = np.linalg.norm(X[0] - X[1])
        d_proj = np.linalg.norm(Z[0] - Z[1])
        assert d_proj == pytest.approx(d_orig, rel=1e-9)

    def test_explained_variance_descending(self, rng):
        X = rng.normal(size=(50, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        pca = PCA().fit(X)
        ev = pca.explained_variance_
        assert np.all(np.diff(ev) <= 1e-9)

    def test_unfitted_rejected(self, rng):
        with pytest.raises(NotFittedError):
            PCA().transform(rng.normal(size=(2, 3)))


class TestRotationForest:
    def test_fits_blobs(self, rng):
        X, y = _blobs(rng, [[0, 0, 0, 0], [4, 4, 4, 4]], n=25)
        model = RotationForest(n_estimators=5, seed=0).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_three_classes(self, rng):
        X, y = _blobs(rng, [[0, 0, 0], [5, 0, 0], [0, 5, 0]], n=20)
        model = RotationForest(n_estimators=5, seed=0).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_deterministic(self, rng):
        X, y = _blobs(rng, [[0, 0], [4, 4]])
        p1 = RotationForest(n_estimators=3, seed=5).fit(X, y).predict(X)
        p2 = RotationForest(n_estimators=3, seed=5).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_unfitted_rejected(self, rng):
        with pytest.raises(NotFittedError):
            RotationForest().predict(rng.normal(size=(2, 4)))

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            RotationForest(n_estimators=0)
        with pytest.raises(ValidationError):
            RotationForest(sample_fraction=0.0)


class TestKMeans:
    def test_recovers_blob_centers(self, rng):
        X, _y = _blobs(rng, [[0, 0], [10, 10]], n=40, spread=0.3)
        km = KMeans(n_clusters=2, seed=0).fit(X)
        centers = km.centers_[np.argsort(km.centers_[:, 0])]
        assert np.allclose(centers[0], [0, 0], atol=0.5)
        assert np.allclose(centers[1], [10, 10], atol=0.5)

    def test_labels_partition_points(self, rng):
        X, _y = _blobs(rng, [[0, 0], [8, 8]], n=15)
        km = KMeans(n_clusters=2, seed=0).fit(X)
        assert km.labels_.shape == (30,)
        assert set(km.labels_.tolist()) == {0, 1}

    def test_predict_consistent_with_fit_labels(self, rng):
        X, _y = _blobs(rng, [[0, 0], [8, 8]], n=15)
        km = KMeans(n_clusters=2, seed=0).fit(X)
        assert np.array_equal(km.predict(X), km.labels_)

    def test_clamps_k_to_sample_count(self, rng):
        X = rng.normal(size=(3, 2))
        km = KMeans(n_clusters=10, seed=0).fit(X)
        assert km.centers_.shape[0] == 3

    def test_inertia_decreases_with_more_clusters(self, rng):
        X, _y = _blobs(rng, [[0, 0], [5, 5], [10, 0]], n=20)
        i2 = KMeans(n_clusters=2, seed=0).fit(X).inertia_
        i3 = KMeans(n_clusters=3, seed=0).fit(X).inertia_
        assert i3 < i2

    def test_unfitted_rejected(self, rng):
        with pytest.raises(NotFittedError):
            KMeans(n_clusters=2).predict(rng.normal(size=(2, 2)))


class TestLogisticRegression:
    def test_sigmoid_stable(self):
        assert sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_binary_blobs(self, rng):
        X, y = _blobs(rng, [[0, 0], [4, 4]])
        model = LogisticRegression().fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.95

    def test_probabilities_sum_to_one(self, rng):
        X, y = _blobs(rng, [[0, 0], [4, 0], [0, 4]], n=15)
        model = LogisticRegression().fit(X, y)
        probs = model.predict_proba(X)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_multiclass(self, rng):
        X, y = _blobs(rng, [[0, 0], [6, 0], [0, 6]], n=20)
        model = LogisticRegression().fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_unfitted_rejected(self, rng):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(rng.normal(size=(2, 2)))

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_scores_do_not_depend_on_batch_size(self, rng, n_classes):
        # A served row is scored alone; it must get the same bits as
        # the same row inside a 300-row batch.
        X = rng.normal(size=(300, 40))
        y = rng.integers(0, n_classes, size=300)
        model = LogisticRegression(max_epochs=50).fit(X, y)
        for method in (model.decision_function, model.predict_proba):
            batch = method(X)
            rows = np.vstack([method(X[i : i + 1]) for i in range(len(X))])
            np.testing.assert_array_equal(rows, batch)
