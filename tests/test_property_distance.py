"""Hypothesis property tests for the distance / profile substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels import (
    distance_profile,
    mass,
    sliding_mean_std,
    squared_euclidean,
    subsequence_distance,
)
from repro.ts.dtw import dtw_distance
from repro.ts.preprocessing import linear_interpolate_resample, znormalize

_FINITE = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def _series(min_size: int, max_size: int):
    return arrays(np.float64, st.integers(min_size, max_size), elements=_FINITE)


@settings(max_examples=40, deadline=None)
@given(_series(2, 40))
@example(np.full(5, 3.25))
def test_znormalize_idempotent_on_scale(x):
    """z-normalization is invariant to affine input transforms.

    Only where float64 keeps ``3x + 7`` affine to the tolerance: its
    rounding is about 6e-14 absolute for |x| <= 100, which is a 2e-10
    error in the normalized values once ``std(x) > 1e-4``. A near-flat
    slice such as ``[0, 2.794e-11]`` has a std above ``FLAT_STD``, yet
    ``3x + 7`` keeps only ~5 digits of it. An exactly constant slice
    maps to zeros both ways.
    """
    assume(np.std(x) > 1e-4 or np.all(x == x[0]))
    z1 = znormalize(x)
    z2 = znormalize(3.0 * x + 7.0)
    assert np.allclose(z1, z2, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(_series(2, 40))
def test_squared_euclidean_identity(x):
    assert squared_euclidean(x, x) == 0.0


@settings(max_examples=40, deadline=None)
@given(_series(2, 30), _series(2, 30))
def test_squared_euclidean_symmetry(x, y):
    n = min(x.size, y.size)
    a, b = x[:n], y[:n]
    assert squared_euclidean(a, b) == squared_euclidean(b, a)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_distance_profile_matches_brute(data):
    t = data.draw(_series(10, 60))
    L = data.draw(st.integers(2, min(8, t.size)))
    q = data.draw(arrays(np.float64, L, elements=_FINITE))
    profile = distance_profile(q, t)
    brute = np.array([np.sum((t[i : i + L] - q) ** 2) for i in range(t.size - L + 1)])
    scale = max(1.0, np.abs(brute).max())
    assert np.allclose(profile, brute, atol=1e-6 * scale)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_subsequence_distance_of_contained_window_is_zero(data):
    t = data.draw(_series(10, 60))
    L = data.draw(st.integers(2, min(8, t.size)))
    start = data.draw(st.integers(0, t.size - L))
    assert subsequence_distance(t[start : start + L], t) <= 1e-7


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sliding_mean_std_nonnegative_std(data):
    t = data.draw(_series(5, 60))
    L = data.draw(st.integers(1, t.size))
    _means, stds = sliding_mean_std(t, L)
    assert np.all(stds >= 0.0)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_mass_profile_bounded(data):
    """z-normalized distances lie in [0, 2*sqrt(L)]."""
    t = data.draw(_series(12, 60))
    L = data.draw(st.integers(3, min(10, t.size)))
    q = data.draw(arrays(np.float64, L, elements=_FINITE))
    profile = mass(q, t)
    assert np.all(profile >= 0.0)
    assert np.all(profile <= 2.0 * np.sqrt(L) + 1e-6)


@settings(max_examples=20, deadline=None)
@given(_series(3, 25), _series(3, 25))
def test_dtw_symmetry_and_identity(x, y):
    assert dtw_distance(x, x) == 0.0
    assert abs(dtw_distance(x, y) - dtw_distance(y, x)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(_series(3, 25), _series(3, 25))
def test_dtw_lower_bounds_euclidean_for_equal_lengths(x, y):
    n = min(x.size, y.size)
    a, b = x[:n], y[:n]
    euclidean = float(np.sqrt(np.sum((a - b) ** 2)))
    assert dtw_distance(a, b) <= euclidean + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_resample_preserves_endpoints_and_range(data):
    x = data.draw(_series(2, 40))
    new_len = data.draw(st.integers(2, 80))
    out = linear_interpolate_resample(x, new_len)
    assert out.size == new_len
    assert out[0] == x[0]
    assert out[-1] == x[-1]
    assert out.min() >= x.min() - 1e-12
    assert out.max() <= x.max() + 1e-12
