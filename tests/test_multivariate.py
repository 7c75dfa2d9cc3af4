"""Tests for repro.multivariate: dataset container + per-dimension IPS."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.classify.naive_bayes import GaussianNB
from repro.core.config import IPSConfig
from repro.core.pipeline import IPS
from repro.core.transform import ShapeletTransform
from repro.datasets.generators import make_planted_dataset
from repro.exceptions import (
    EmptyPoolError,
    NotFittedError,
    ReproError,
    ValidationError,
)
from repro.kernels import SeriesCache
from repro.multivariate import MultivariateDataset, MultivariateIPSClassifier
from repro.obs import Trace, load_trace


def _make_mv(n: int = 24, n_dims: int = 3, length: int = 60, seed: int = 0):
    """Multivariate data: dimension 0 carries the class signal; the rest
    are informative-in-one-dim / pure-noise channels."""
    rng = np.random.default_rng(seed)
    signal = make_planted_dataset(n_classes=2, n_instances=n, length=length, seed=seed)
    X = np.empty((n, n_dims, length))
    X[:, 0, :] = signal.X
    second = make_planted_dataset(
        n_classes=2, n_instances=n, length=length, seed=seed + 1
    )
    # Re-sort the second generator's rows to match the first's labels.
    want = signal.y
    rows0 = list(np.flatnonzero(second.y == 0))
    rows1 = list(np.flatnonzero(second.y == 1))
    chosen = [rows0.pop() if label == 0 else rows1.pop() for label in want]
    X[:, 1, :] = second.X[chosen]
    for dim in range(2, n_dims):
        X[:, dim, :] = rng.normal(size=(n, length))
    return X, signal.classes_[signal.y]


class TestMultivariateDataset:
    def test_shape_accessors(self):
        X, y = _make_mv()
        ds = MultivariateDataset(X=X, y=y, name="mv")
        assert ds.n_instances == 24
        assert ds.n_dimensions == 3
        assert ds.series_length == 60
        assert ds.n_classes == 2

    def test_dimension_view_shares_labels(self):
        X, y = _make_mv()
        ds = MultivariateDataset(X=X, y=y)
        uni = ds.dimension(1)
        assert uni.X.shape == (24, 60)
        assert np.array_equal(uni.y, ds.y)

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            MultivariateDataset(X=np.zeros((4, 10)), y=[0, 0, 1, 1])

    def test_rejects_nan(self):
        X = np.zeros((2, 2, 10))
        X[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            MultivariateDataset(X=X, y=[0, 1])

    def test_dimension_out_of_range(self):
        X, y = _make_mv()
        ds = MultivariateDataset(X=X, y=y)
        with pytest.raises(ValidationError):
            ds.dimension(5)

    def test_label_remap(self):
        X, _y = _make_mv()
        ds = MultivariateDataset(X=X, y=np.repeat([5, 9], 12))
        assert set(ds.y.tolist()) == {0, 1}
        assert ds.classes_.tolist() == [5, 9]


class TestMultivariateIPSClassifier:
    @pytest.fixture(scope="class")
    def fitted(self):
        X, y = _make_mv(n=24, seed=3)
        config = IPSConfig(k=2, q_n=6, q_s=3, length_ratios=(0.2, 0.35), seed=0)
        clf = MultivariateIPSClassifier(config).fit(X[:16], y[:16])
        return clf, X[16:], y[16:]

    def test_learns_from_signal_dimension(self, fitted):
        clf, X_test, y_test = fitted
        assert clf.score(X_test, y_test) > 0.6

    def test_shapelets_per_dimension(self, fitted):
        clf, _X, _y = fitted
        assert set(clf.shapelets_per_dim_) <= {0, 1, 2}
        assert clf.n_shapelets >= 2

    def test_predict_shape_and_labels(self, fitted):
        clf, X_test, y_test = fitted
        preds = clf.predict(X_test)
        assert preds.shape == (X_test.shape[0],)
        assert set(np.unique(preds)).issubset(set(np.unique(y_test)))

    def test_rejects_2d_predict(self, fitted):
        clf, _X, _y = fitted
        with pytest.raises(ValidationError):
            clf.predict(np.zeros((4, 60)))

    def test_unfitted_rejected(self):
        clf = MultivariateIPSClassifier()
        with pytest.raises(NotFittedError):
            clf.predict(np.zeros((1, 2, 30)))
        with pytest.raises(NotFittedError):
            _ = clf.n_shapelets

    def test_dimension_without_candidates_is_skipped(self, monkeypatch):
        X, y = _make_mv(n=16, seed=3)
        discover = IPS._discover

        def empty_on_dimension_1(self, dataset, tracer, times):
            if np.array_equal(dataset.X, X[:, 1, :]):
                raise EmptyPoolError("no candidates on this channel")
            return discover(self, dataset, tracer, times)

        monkeypatch.setattr(IPS, "_discover", empty_on_dimension_1)
        config = IPSConfig(k=2, q_n=6, q_s=3, length_ratios=(0.2, 0.35), seed=0)
        clf = MultivariateIPSClassifier(config).fit(X, y)
        assert clf.skipped_dimensions_ == [1]
        assert set(clf.shapelets_per_dim_) == {0, 2}
        assert clf.predict(X).shape == (16,)

    def test_transform_puts_dimensions_side_by_side(self, fitted):
        clf, X_test, _y = fitted
        blocks = [
            ShapeletTransform(shapelets).transform(X_test[:, dim, :])
            for dim, shapelets in sorted(clf.shapelets_per_dim_.items())
        ]
        np.testing.assert_array_equal(clf.transform(X_test), np.hstack(blocks))

    def test_with_cache_binds_every_dimension(self, fitted):
        clf, X_test, _y = fitted
        cache = SeriesCache()
        bound = clf.model_.with_cache(cache)
        assert all(t.cache is cache for t in bound.transform.transforms.values())
        assert all(t.cache is None for t in clf.model_.transform.transforms.values())
        np.testing.assert_array_equal(bound.predict(X_test), clf.predict(X_test))

    def test_final_classifier_is_honoured(self):
        X, y = _make_mv(n=24, seed=3)
        config = IPSConfig(
            k=2, q_n=6, q_s=3, length_ratios=(0.2, 0.35), seed=0,
            final_classifier="nb",
        )
        clf = MultivariateIPSClassifier(config).fit(X[:16], y[:16])
        assert isinstance(clf.model_.classifier, GaussianNB)
        proba = clf.predict_proba(X[16:])
        assert proba.shape == (8, 2)
        np.testing.assert_array_equal(
            clf.predict(X[16:]), clf.classes_[np.argmax(proba, axis=1)]
        )

    def test_trace_jsonl_is_written_once_with_every_dimension(
        self, tmp_path, monkeypatch
    ):
        X, y = _make_mv(n=16, n_dims=3, seed=3)
        path = tmp_path / "run.jsonl"
        config = IPSConfig(
            k=2, q_n=6, q_s=3, length_ratios=(0.2, 0.35), seed=0,
            observability="trace+jsonl", obs_jsonl_path=str(path),
        )
        writes = []
        to_jsonl = Trace.to_jsonl

        def counting_to_jsonl(self, target=None):
            writes.append(target)
            return to_jsonl(self, target)

        monkeypatch.setattr(Trace, "to_jsonl", counting_to_jsonl)
        clf = MultivariateIPSClassifier(config).fit(X, y)
        assert writes == [str(path)]
        trace = load_trace(path)
        kept = sorted(clf.shapelets_per_dim_)
        assert [root.name for root in trace.roots] == [
            *(["discover"] * len(kept)), "transform", "classify",
        ]
        assert [span.attrs["dataset"] for span in trace.find("discover")] == [
            f"[dim={dim}]" for dim in kept
        ]
        assert trace.manifest["dataset"]["n_series"] == 16
        counters = trace.metrics.snapshot()["counters"]
        assert counters["kernels.kernel_calls"] == clf.perf_["kernel_calls"] > 0

    def test_unwritable_trace_path_raises_naming_it(self, tmp_path):
        X, y = _make_mv(n=16, seed=3)
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = IPSConfig(
            k=2,
            q_n=6,
            q_s=3,
            seed=0,
            observability="trace+jsonl",
            obs_jsonl_path=str(blocker / "run.jsonl"),
        )
        with pytest.raises(ReproError, match=re.escape(str(blocker))):
            MultivariateIPSClassifier(config).fit(X, y)


class TestMultivariateGenerator:
    def test_shape_and_labels(self):
        from repro.datasets import make_multivariate_planted

        mv = make_multivariate_planted(
            n_classes=2, n_instances=12, n_dimensions=4, length=48,
            informative_dimensions=2, seed=0,
        )
        assert mv.X.shape == (12, 4, 48)
        assert mv.n_classes == 2

    def test_informative_channels_align_with_labels(self):
        """Both informative channels must be learnable with the SAME labels."""
        from repro.classify.neighbors import OneNearestNeighbor
        from repro.datasets import make_multivariate_planted
        from repro.kernels import subsequence_distance

        mv = make_multivariate_planted(
            n_classes=2, n_instances=24, n_dimensions=3, length=64,
            informative_dimensions=2, seed=1,
        )
        for dim in (0, 1):
            uni = mv.dimension(dim)
            zero = uni.series_of_class(0)
            one = uni.series_of_class(1)
            within = np.mean(
                [subsequence_distance(zero[i, 15:45], zero[j]) for i in range(3) for j in range(3, 6)]
            )
            across = np.mean(
                [subsequence_distance(zero[i, 15:45], one[j]) for i in range(3) for j in range(3)]
            )
            assert within < across * 1.5, dim

    def test_noise_channels_uninformative(self):
        from repro.datasets import make_multivariate_planted

        mv = make_multivariate_planted(
            n_classes=2, n_instances=20, n_dimensions=3, length=48,
            informative_dimensions=1, seed=2,
        )
        noise = mv.dimension(2)
        class_means = [noise.series_of_class(c).mean() for c in (0, 1)]
        assert abs(class_means[0] - class_means[1]) < 0.5

    def test_bad_informative_count_rejected(self):
        from repro.datasets import make_multivariate_planted
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            make_multivariate_planted(
                n_classes=2, n_instances=8, n_dimensions=2, length=48,
                informative_dimensions=3,
            )

    def test_deterministic(self):
        from repro.datasets import make_multivariate_planted

        a = make_multivariate_planted(2, 8, 2, 48, seed=5)
        b = make_multivariate_planted(2, 8, 2, 48, seed=5)
        assert np.array_equal(a.X, b.X)
