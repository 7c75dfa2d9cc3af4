"""Tests for the repro.kernels scalar distances: FFT sliding distances vs brute force."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import LengthError, ValidationError
from repro.kernels import (
    batch_min_distance,
    distance_profile,
    euclidean_distance,
    sliding_dot_product,
    sliding_mean_std,
    squared_euclidean,
    subsequence_distance,
)


class TestBasicDistances:
    def test_squared_euclidean(self):
        assert squared_euclidean([0, 0], [3, 4]) == pytest.approx(25.0)

    def test_euclidean(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            squared_euclidean([1, 2], [1, 2, 3])


class TestSlidingDotProduct:
    def test_matches_direct(self, rng):
        t = rng.normal(size=120)
        q = rng.normal(size=17)
        out = sliding_dot_product(q, t)
        direct = np.array([t[i : i + 17] @ q for i in range(104)])
        assert np.allclose(out, direct, atol=1e-8)

    def test_tiny_output_uses_direct_path(self, rng):
        t = rng.normal(size=20)
        q = rng.normal(size=18)
        out = sliding_dot_product(q, t)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(t[1:19] @ q)


class TestSlidingMeanStd:
    def test_matches_naive(self, rng):
        t = rng.normal(size=60)
        means, stds = sliding_mean_std(t, 9)
        for i in range(52):
            assert means[i] == pytest.approx(t[i : i + 9].mean())
            assert stds[i] == pytest.approx(t[i : i + 9].std(), abs=1e-9)

    def test_constant_window_std_zero(self):
        t = np.concatenate([np.zeros(10), np.ones(10)])
        _means, stds = sliding_mean_std(t, 5)
        assert stds[0] == 0.0
        assert stds[-1] == 0.0


class TestDistanceProfile:
    def test_exact_match_is_zero(self, random_series):
        q = random_series[40:70].copy()
        profile = distance_profile(q, random_series)
        assert profile[40] == pytest.approx(0.0, abs=1e-7)

    def test_matches_brute_force(self, rng):
        t = rng.normal(size=150)
        q = rng.normal(size=20)
        profile = distance_profile(q, t)
        brute = np.array([np.sum((t[i : i + 20] - q) ** 2) for i in range(131)])
        assert np.allclose(profile, brute, atol=1e-6)

    def test_non_negative(self, rng):
        t = rng.normal(size=300)
        q = rng.normal(size=30)
        assert np.all(distance_profile(q, t) >= 0.0)

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            distance_profile(np.zeros((2, 2)), np.zeros(10))


class TestSubsequenceDistance:
    def test_def4_normalization(self, rng):
        """Def. 4: distance is the min mean squared difference."""
        t = rng.normal(size=100)
        q = rng.normal(size=10)
        expected = min(
            np.mean((t[i : i + 10] - q) ** 2) for i in range(91)
        )
        assert subsequence_distance(q, t) == pytest.approx(expected)

    def test_argument_order_irrelevant(self, rng):
        t = rng.normal(size=80)
        q = rng.normal(size=12)
        assert subsequence_distance(q, t) == pytest.approx(subsequence_distance(t, q))

    def test_identical_series_zero(self, rng):
        t = rng.normal(size=50)
        assert subsequence_distance(t, t) == pytest.approx(0.0, abs=1e-9)

    def test_contained_subsequence_zero(self, random_series):
        q = random_series[10:30]
        assert subsequence_distance(q, random_series) == pytest.approx(0.0, abs=1e-9)


class TestPairwiseSubsequenceDistance:
    def test_shape_and_values(self, rng):
        X = rng.normal(size=(4, 60))
        queries = [rng.normal(size=8), rng.normal(size=15)]
        D = batch_min_distance(queries, X)
        assert D.shape == (4, 2)
        for j in range(4):
            for i, q in enumerate(queries):
                assert D[j, i] == pytest.approx(subsequence_distance(q, X[j]))

    def test_query_longer_than_series_rejected(self, rng):
        with pytest.raises(LengthError):
            batch_min_distance([rng.normal(size=100)], rng.normal(size=(2, 50)))

    def test_rejects_1d_matrix(self, rng):
        with pytest.raises(ValidationError):
            batch_min_distance([np.zeros(3)], np.zeros(10))
