"""Differential tests for the batched STOMP kernel.

``oracle_self_join`` and ``oracle_ab_join`` below are the per-row STOMP
loops that ``repro.matrixprofile.stomp`` ran one problem at a time before
the batched kernel replaced them, copied verbatim. Every profile the
batched kernel returns must equal the oracle's bit for bit, values and
indices, whatever else shares its batch.

The SHA-256 pins at the end were computed with that per-row loop: a
candidate pool, and a fitted model's predictions, on seeded planted data.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import IPSConfig
from repro.core.pipeline import IPSClassifier
from repro.datasets.generators import make_planted_dataset
from repro.exceptions import ValidationError
from repro.instanceprofile import generate_candidates
from repro.kernels import PerfCounters, SeriesCache, sliding_dot_product, sliding_mean_std
from repro.matrixprofile.profile import MatrixProfile
from repro.matrixprofile.stomp import (
    SelfJoin,
    ab_join,
    default_exclusion,
    stomp_self_join,
    stomp_self_join_batch,
)
from repro.ts.concat import concatenate_series
from repro.ts.preprocessing import FLAT_STD
from repro.ts.windows import num_windows

# ---------------------------------------------------------------------------
# Oracle: the per-row loops, verbatim.
# ---------------------------------------------------------------------------


def _window_stats(
    series: np.ndarray, window: int, normalized: bool, cache: SeriesCache | None
):
    """Per-window means/stds (normalized) or sums of squares (raw)."""
    if normalized:
        means, stds = sliding_mean_std(series, window, cache=cache)
        return means, stds, None
    if cache is not None:
        return None, None, cache.window_ssq(series, window)
    csum2 = np.concatenate([[0.0], np.cumsum(series * series)])
    ssq = csum2[window:] - csum2[:-window]
    return None, None, ssq


def _row_distances(
    qt_row: np.ndarray,
    i: int,
    window: int,
    normalized: bool,
    means: np.ndarray | None,
    stds: np.ndarray | None,
    ssq_a: np.ndarray | None,
    ssq_b: np.ndarray | None,
    means_a: np.ndarray | None = None,
    stds_a: np.ndarray | None = None,
) -> np.ndarray:
    """Squared distances of window ``i`` (of A) against all windows (of B)."""
    if normalized:
        m_a = means_a[i] if means_a is not None else means[i]
        s_a = stds_a[i] if stds_a is not None else stds[i]
        a_flat = s_a < FLAT_STD
        b_flat = stds < FLAT_STD
        # Denominators are clamped to FLAT_STD and inputs are finite, so
        # no divide/invalid can occur; flat windows are patched below.
        corr = (qt_row - window * m_a * means) / (
            window * max(s_a, FLAT_STD) * np.maximum(stds, FLAT_STD)
        )
        corr = np.clip(corr, -1.0, 1.0)
        sq = 2.0 * window * (1.0 - corr)
        if a_flat:
            sq = np.where(b_flat, 0.0, float(window))
        else:
            sq = np.where(b_flat, float(window), sq)
        return np.maximum(sq, 0.0)
    ssq_i = ssq_a[i] if ssq_a is not None else ssq_b[i]
    return np.maximum(ssq_b - 2.0 * qt_row + ssq_i, 0.0)


def oracle_self_join(
    series: np.ndarray,
    window: int,
    exclusion: int | None = None,
    valid_mask: np.ndarray | None = None,
    normalized: bool = True,
    groups: np.ndarray | None = None,
    cache: SeriesCache | None = None,
) -> MatrixProfile:
    """Matrix profile of ``series`` against itself (the paper's Def. 5).

    Parameters
    ----------
    series:
        1-D array of length N.
    window:
        Subsequence length L.
    exclusion:
        Trivial-match exclusion half-width; defaults to
        :func:`default_exclusion`.
    valid_mask:
        Optional boolean array over the ``N - L + 1`` window starts. Invalid
        windows receive an infinite profile value and are never chosen as
        anyone's nearest neighbour (used for junction windows in
        concatenated series).
    normalized:
        z-normalized Euclidean distances (default) or raw Euclidean.
    groups:
        Optional integer group id per window start. When given, a window's
        nearest neighbour is restricted to windows of a *different* group.
        This implements the paper's Def. 9 constraint ``m' != m`` (the
        instance profile matches only across instances) with the group id
        being the instance index inside a concatenated sample.
    cache:
        Optional :class:`repro.kernels.SeriesCache`. Cumulative sums and
        FFT spectra of ``series`` are then computed once and shared — in
        particular across the candidate-length loop of the instance
        profile, which calls this repeatedly on the same sample.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValidationError("stomp_self_join expects a 1-D series")
    n_out = num_windows(series.size, window)
    if exclusion is None:
        exclusion = default_exclusion(window)
    if valid_mask is None:
        valid_mask = np.ones(n_out, dtype=bool)
    else:
        valid_mask = np.asarray(valid_mask, dtype=bool)
        if valid_mask.shape != (n_out,):
            raise ValidationError(
                f"valid_mask must have shape ({n_out},), got {valid_mask.shape}"
            )

    if groups is not None:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (n_out,):
            raise ValidationError(
                f"groups must have shape ({n_out},), got {groups.shape}"
            )

    means, stds, ssq = _window_stats(series, window, normalized, cache)
    invalid_cols = ~valid_mask

    first_row = sliding_dot_product(series[:window], series, cache=cache)
    qt = first_row.copy()
    first_col = first_row.copy()  # self-join symmetry: QT[i, 0] == QT[0, i]

    values = np.full(n_out, np.inf)
    indices = np.full(n_out, -1, dtype=np.int64)
    for i in range(n_out):
        if i > 0:
            qt[1:] = (
                qt[:-1]
                - series[i - 1] * series[: n_out - 1]
                + series[i + window - 1] * series[window : window + n_out - 1]
            )
            qt[0] = first_col[i]
        if not valid_mask[i]:
            continue
        sq = _row_distances(qt, i, window, normalized, means, stds, ssq, ssq)
        lo = max(0, i - exclusion)
        hi = min(n_out, i + exclusion + 1)
        sq[lo:hi] = np.inf
        sq[invalid_cols] = np.inf
        if groups is not None:
            sq[groups == groups[i]] = np.inf
        j = int(np.argmin(sq))
        if np.isfinite(sq[j]):
            values[i] = np.sqrt(sq[j])
            indices[i] = j
    return MatrixProfile(
        values=values,
        indices=indices,
        window=window,
        exclusion=exclusion,
        normalized=normalized,
        valid_mask=valid_mask,
    )


def oracle_ab_join(
    series_a: np.ndarray,
    series_b: np.ndarray,
    window: int,
    valid_mask_a: np.ndarray | None = None,
    valid_mask_b: np.ndarray | None = None,
    normalized: bool = True,
    cache: SeriesCache | None = None,
) -> MatrixProfile:
    """AB-join profile: for each window of A, its nearest neighbour in B.

    No exclusion zone applies (the series are distinct); this is the
    ``P_AB`` of the paper's Figures 3-4. A ``cache`` shares both series'
    statistics and spectra across repeated joins (e.g. the BASE
    baseline's per-class, per-length loop).
    """
    series_a = np.asarray(series_a, dtype=np.float64)
    series_b = np.asarray(series_b, dtype=np.float64)
    if series_a.ndim != 1 or series_b.ndim != 1:
        raise ValidationError("ab_join expects 1-D series")
    n_a = num_windows(series_a.size, window)
    n_b = num_windows(series_b.size, window)
    if valid_mask_a is None:
        valid_mask_a = np.ones(n_a, dtype=bool)
    else:
        valid_mask_a = np.asarray(valid_mask_a, dtype=bool)
        if valid_mask_a.shape != (n_a,):
            raise ValidationError("valid_mask_a has wrong shape")
    if valid_mask_b is None:
        valid_mask_b = np.ones(n_b, dtype=bool)
    else:
        valid_mask_b = np.asarray(valid_mask_b, dtype=bool)
        if valid_mask_b.shape != (n_b,):
            raise ValidationError("valid_mask_b has wrong shape")

    means_b, stds_b, ssq_b = _window_stats(series_b, window, normalized, cache)
    if normalized:
        means_a, stds_a = sliding_mean_std(series_a, window, cache=cache)
        ssq_a = None
    else:
        means_a = stds_a = None
        _, _, ssq_a = _window_stats(series_a, window, normalized, cache)

    first_row = sliding_dot_product(series_a[:window], series_b, cache=cache)
    first_col = sliding_dot_product(series_b[:window], series_a, cache=cache)
    qt = first_row.copy()
    invalid_cols = ~valid_mask_b

    values = np.full(n_a, np.inf)
    indices = np.full(n_a, -1, dtype=np.int64)
    for i in range(n_a):
        if i > 0:
            qt[1:] = (
                qt[:-1]
                - series_a[i - 1] * series_b[: n_b - 1]
                + series_a[i + window - 1] * series_b[window : window + n_b - 1]
            )
            qt[0] = first_col[i]
        if not valid_mask_a[i]:
            continue
        sq = _row_distances(
            qt,
            i,
            window,
            normalized,
            means_b,
            stds_b,
            ssq_a,
            ssq_b,
            means_a=means_a,
            stds_a=stds_a,
        )
        sq[invalid_cols] = np.inf
        j = int(np.argmin(sq))
        if np.isfinite(sq[j]):
            values[i] = np.sqrt(sq[j])
            indices[i] = j
    return MatrixProfile(
        values=values,
        indices=indices,
        window=window,
        exclusion=0,
        normalized=normalized,
        valid_mask=valid_mask_a,
    )


# ---------------------------------------------------------------------------
# Problem generators
# ---------------------------------------------------------------------------


@st.composite
def _problems(draw) -> list[SelfJoin]:
    """One to three self-joins; several when they share a sample and cache.

    Kinds: white noise, a random walk with constant stretches (flat
    windows), a constant series, and a concatenated sample of one to four
    instances (junction mask and instance groups, as the instance profile
    builds them; one instance means no groups).
    """
    kind = draw(st.sampled_from(["noise", "flat", "constant", "sample"]))
    normalized = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sample":
        window = draw(st.integers(2, 10))
        n_instances = draw(st.integers(1, 4))
        instances = [
            rng.normal(size=draw(st.integers(window, window + 20))).cumsum()
            for _ in range(n_instances)
        ]
        if draw(st.booleans()):
            instances[0][: window + 2] = 1.5  # a flat stretch
        sample = concatenate_series(instances)
        cache = SeriesCache() if draw(st.booleans()) else None
        windows = draw(
            st.lists(st.integers(2, window), min_size=1, max_size=3, unique=True)
        )
        problems = []
        for length in windows:
            n_out = num_windows(len(sample), length)
            groups = None
            if n_instances > 1:
                groups = (
                    np.searchsorted(sample.boundaries, np.arange(n_out), side="right")
                    - 1
                )
            problems.append(
                SelfJoin(
                    sample.values,
                    length,
                    valid_mask=sample.valid_window_mask(length),
                    normalized=normalized,
                    groups=groups,
                    cache=cache,
                )
            )
        return problems
    window = draw(st.integers(1, 12))
    n = draw(st.integers(window, window + 40))
    if kind == "noise":
        series = rng.normal(size=n)
    elif kind == "flat":
        series = rng.normal(size=n).cumsum()
        for _ in range(draw(st.integers(1, 3))):
            start = int(rng.integers(0, n))
            series[start : start + window + int(rng.integers(0, 5))] = rng.normal()
    else:
        series = np.full(n, float(rng.normal()))
    n_out = n - window + 1
    valid = rng.random(n_out) < 0.8 if draw(st.booleans()) else None
    groups = rng.integers(0, 3, n_out) if draw(st.booleans()) else None
    exclusion = draw(st.none() | st.integers(-1, 6))
    cache = SeriesCache() if draw(st.booleans()) else None
    return [SelfJoin(series, window, exclusion, valid, normalized, groups, cache)]


def _oracle(problem: SelfJoin) -> MatrixProfile:
    """The per-row loop on ``problem`` alone, with a cache of its own."""
    return oracle_self_join(
        problem.series,
        problem.window,
        exclusion=problem.exclusion,
        valid_mask=problem.valid_mask,
        normalized=problem.normalized,
        groups=problem.groups,
        cache=SeriesCache() if problem.cache is not None else None,
    )


def _assert_identical(got: MatrixProfile, want: MatrixProfile) -> None:
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.indices, want.indices)
    assert got.window == want.window
    assert got.exclusion == want.exclusion
    assert got.normalized == want.normalized
    assert np.array_equal(got.valid_mask, want.valid_mask)


# ---------------------------------------------------------------------------
# Batched kernel vs oracle
# ---------------------------------------------------------------------------


class TestBatchMatchesOracle:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(_problems(), min_size=1, max_size=5))
    def test_mixed_batch_is_bit_identical(self, groups_of_problems):
        problems = [p for group in groups_of_problems for p in group]
        profiles = stomp_self_join_batch(problems)
        assert len(profiles) == len(problems)
        for problem, profile in zip(problems, profiles):
            _assert_identical(profile, _oracle(problem))

    @pytest.mark.parametrize(
        ("n", "window", "normalized"),
        [(576, 57, True), (576, 57, False), (2000, 100, True)],
    )
    def test_single_problem_is_bit_identical(self, n, window, normalized):
        series = np.random.default_rng(n).normal(size=n).cumsum()
        got = stomp_self_join(series, window, normalized=normalized)
        want = oracle_self_join(series, window, normalized=normalized)
        _assert_identical(got, want)

    def test_instance_profile_batch_of_a_round(self):
        """A round's shape: several samples, each at several lengths."""
        rng = np.random.default_rng(3)
        problems = []
        for n_instances in (1, 3, 4):
            sample = concatenate_series(rng.normal(size=(n_instances, 60)).cumsum(axis=1))
            cache = SeriesCache()
            for window in (6, 12, 24):
                n_out = num_windows(len(sample), window)
                groups = None
                if n_instances > 1:
                    groups = (
                        np.searchsorted(sample.boundaries, np.arange(n_out), side="right")
                        - 1
                    )
                problems.append(
                    SelfJoin(
                        sample.values,
                        window,
                        valid_mask=sample.valid_window_mask(window),
                        groups=groups,
                        cache=cache,
                    )
                )
        for problem, profile in zip(problems, stomp_self_join_batch(problems)):
            _assert_identical(profile, _oracle(problem))

    @pytest.mark.parametrize("normalized", [True, False])
    def test_ab_join_is_bit_identical(self, normalized):
        rng = np.random.default_rng(11)
        a = rng.normal(size=140).cumsum()
        b = rng.normal(size=90).cumsum()
        b[20:45] = 0.5  # flat windows of B
        a[:30] = -1.0  # flat windows of A
        mask_a = rng.random(a.size - 15 + 1) < 0.8
        mask_b = rng.random(b.size - 15 + 1) < 0.8
        for masks in ((None, None), (mask_a, mask_b)):
            got = ab_join(a, b, 15, *masks, normalized=normalized)
            want = oracle_ab_join(a, b, 15, *masks, normalized=normalized)
            _assert_identical(got, want)


class TestBatchContracts:
    def test_cache_traffic_equals_sequential_calls(self):
        """Shared caches see the same lookups as one call per problem."""
        rng = np.random.default_rng(5)
        series = [rng.normal(size=300).cumsum(), rng.normal(size=420).cumsum()]

        def run(batched: bool) -> dict:
            counters = PerfCounters()
            caches = [SeriesCache(counters=counters) for _ in series]
            problems = [
                SelfJoin(t, window, cache=cache)
                for t, cache in zip(series, caches)
                for window in (8, 20, 40)
            ]
            if batched:
                stomp_self_join_batch(problems)
            else:
                for p in problems:
                    oracle_self_join(p.series, p.window, cache=p.cache)
            return counters.snapshot()

        assert run(batched=True) == run(batched=False)

    def test_empty_batch(self):
        assert stomp_self_join_batch([]) == []

    def test_bad_problem_rejected(self):
        good = SelfJoin(np.arange(30.0), 5)
        bad = SelfJoin(np.arange(30.0), 5, valid_mask=np.ones(3, dtype=bool))
        with pytest.raises(ValidationError):
            stomp_self_join_batch([good, bad])
        with pytest.raises(ValidationError):
            stomp_self_join_batch([SelfJoin(np.ones((3, 3)), 2)])

    def test_working_memory_is_linear(self):
        """Peak allocation stays far below one (n x n) QT matrix."""
        import tracemalloc

        rng = np.random.default_rng(2)
        n = 2000
        problems = [SelfJoin(rng.normal(size=n), w) for w in (20, 50, 100, 200)]
        tracemalloc.start()
        try:
            stomp_self_join_batch(problems)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


# ---------------------------------------------------------------------------
# End-to-end pins, computed with the per-row loop
# ---------------------------------------------------------------------------


def _pool_digest(pool) -> str:
    digest = hashlib.sha256()
    for c in pool:
        digest.update(
            repr(
                (c.label, c.kind.value, c.source_instance, c.start, c.sample_id, c.values.size)
            ).encode()
        )
        digest.update(np.ascontiguousarray(c.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def planted():
    return make_planted_dataset(n_classes=3, n_instances=10, length=80, seed=11)


class TestPinnedDigests:
    @pytest.mark.parametrize(
        ("normalized", "expected"),
        [
            (True, "f158c659182eaa3f438ddc120c8c2a6b3f5e3c828de23d6401e6a4f06fa70fd6"),
            (False, "5ab98547127c48284adf733401cdda98e26a7fda84d199ac1af957666f1dedd9"),
        ],
    )
    def test_candidate_pool(self, planted, normalized, expected):
        pool = generate_candidates(
            planted, q_n=4, q_s=3, lengths=[8, 16, 24, 40], normalized=normalized, seed=7
        )
        assert len(pool) == 96
        assert _pool_digest(pool) == expected

    def test_fitted_model_predictions(self, planted):
        clf = IPSClassifier(IPSConfig(k=4, q_n=5, q_s=3, seed=3)).fit_dataset(planted)
        test = make_planted_dataset(n_classes=3, n_instances=10, length=80, seed=12)
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(clf.predict(test.X), dtype=np.int64).tobytes())
        digest.update(
            np.ascontiguousarray(clf.decision_function(test.X), dtype=np.float64).tobytes()
        )
        assert digest.hexdigest() == (
            "7fb44d3ba4862ab216e62bee08aa6ea8fd502756c8981ef2684663de61a54e89"
        )
