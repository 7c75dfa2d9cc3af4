"""Tests for repro.kernels.mass and raw_distance_profile."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.kernels import mass, raw_distance_profile
from repro.ts.preprocessing import znormalize


def _brute_znorm_profile(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    L = q.size
    zq = znormalize(q)
    return np.array(
        [
            np.sqrt(np.sum((znormalize(t[i : i + L]) - zq) ** 2))
            for i in range(t.size - L + 1)
        ]
    )


class TestMass:
    def test_matches_brute_force(self, rng):
        t = rng.normal(size=200)
        q = rng.normal(size=25)
        assert np.allclose(mass(q, t), _brute_znorm_profile(q, t), atol=1e-6)

    def test_self_match_zero(self, random_series):
        q = random_series[30:60].copy()
        profile = mass(q, random_series)
        assert profile[30] == pytest.approx(0.0, abs=1e-6)

    def test_scale_invariance(self, rng):
        """z-normalized distance ignores affine transforms of the query."""
        t = rng.normal(size=150)
        q = t[20:50].copy()
        scaled = 5.0 * q + 3.0
        assert np.allclose(mass(q, t), mass(scaled, t), atol=1e-6)

    def test_flat_window_convention(self):
        t = np.concatenate([np.zeros(20), np.sin(np.arange(30))])
        q = np.ones(10)  # flat query
        profile = mass(q, t)
        # Flat query vs flat window -> 0; vs non-flat -> sqrt(L).
        assert profile[0] == pytest.approx(0.0)
        assert profile[-1] == pytest.approx(np.sqrt(10.0))

    def test_non_normalized_delegates_to_raw(self, rng):
        t = rng.normal(size=100)
        q = rng.normal(size=10)
        assert np.allclose(mass(q, t, normalized=False), raw_distance_profile(q, t))

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            mass(np.zeros((2, 3)), np.zeros(10))


class TestNonFiniteGuards:
    """NaN/inf inputs fail loudly instead of propagating NaN distances."""

    def test_nan_query_rejected(self, rng):
        query = rng.normal(size=8)
        query[3] = np.nan
        with pytest.raises(ValidationError, match="query contains NaN or inf"):
            mass(query, rng.normal(size=50))

    def test_inf_series_rejected(self, rng):
        series = rng.normal(size=50)
        series[10] = np.inf
        with pytest.raises(ValidationError, match="series contains NaN or inf"):
            mass(rng.normal(size=8), series)

    def test_raw_flavour_also_guarded(self, rng):
        series = rng.normal(size=50)
        series[0] = np.nan
        with pytest.raises(ValidationError):
            mass(rng.normal(size=8), series, normalized=False)

    def test_constant_windows_stay_finite_and_silent(self, rng):
        """Zero-variance windows follow the flat convention — no divide
        warnings, no NaNs."""
        series = rng.normal(size=60)
        series[20:35] = 4.2  # a flat stretch
        flat_query = np.full(10, 7.0)
        with np.errstate(divide="raise", invalid="raise"):
            from_flat = mass(flat_query, series)
            from_normal = mass(rng.normal(size=10), series)
        assert np.all(np.isfinite(from_flat))
        assert np.all(np.isfinite(from_normal))


class TestRawDistanceProfile:
    def test_is_sqrt_of_squared_profile(self, rng):
        t = rng.normal(size=80)
        q = rng.normal(size=12)
        profile = raw_distance_profile(q, t)
        brute = np.array(
            [np.sqrt(np.sum((t[i : i + 12] - q) ** 2)) for i in range(69)]
        )
        assert np.allclose(profile, brute, atol=1e-6)
