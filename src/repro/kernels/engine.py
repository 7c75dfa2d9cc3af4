"""The distance kernels: scalar reference paths and batched FFT paths.

Every kernel here is built on one identity — for a query ``q`` and a
series ``t``,

    ||t_j - q||^2 = sum(t_j^2) - 2 (t (x) q)_j + sum(q^2)

with ``(x)`` the sliding correlation, computed as an FFT convolution. The
batched kernels amortize the expensive halves across queries and series:
the series spectrum is computed once (and cached in a
:class:`~repro.kernels.SeriesCache`), all same-length queries are
transformed in one batched FFT, and the pointwise products run as one
vectorized multiply instead of a Python loop per query.

Bit-compatibility contract
--------------------------
The batched kernels produce *bit-identical* outputs to the scalar ones,
which are the reference implementations: the FFT size is the same
``next_fast_len(N + L - 1)`` that ``scipy.signal.fftconvolve`` picks,
the direct method takes over for tiny outputs, and every elementwise
formula keeps its operation order. Discovery results are
therefore unchanged whether caching/batching is on or off — the
equivalence suite in ``tests/test_kernels.py`` pins this down.

Memory bound
------------
There is one batched FFT path, in float64. Its pointwise products and
inverse transforms run in blocks whose simultaneous intermediates stay
under one byte budget, ``_CHUNK_BYTES``: blocks of queries over all
series, and blocks of series rows for one query at a time when a single
query over all series would already exceed it. Row FFTs are
independent, so the blocking never changes an output bit.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from repro.exceptions import LengthError, ValidationError
from repro.kernels.cache import SeriesCache
from repro.ts.preprocessing import FLAT_STD
from repro.ts.windows import num_windows

#: Below this many output windows the direct method beats the FFT.
_FFT_CUTOVER = 8

#: Hard ceiling, in bytes, on the *simultaneous* intermediates of one
#: batched inverse-FFT block: the complex pointwise product (16 B/element
#: over the half spectrum) plus the inverse transform's output buffer
#: (8 B/element over the full FFT length). Blocks are sized so their sum
#: stays below it — the predecessor sized chunks by *element count* of
#: the output alone, so actual peak memory ran ~3x the documented ceiling.
_CHUNK_BYTES = 1 << 26


def _intermediate_bytes_per_row(n_fft: int) -> int:
    """Bytes of simultaneous intermediates per (series, query) FFT row."""
    return 16 * (n_fft // 2 + 1) + 8 * n_fft


def _fft_size(n_series: int, n_query: int) -> int:
    """The padded FFT length ``fftconvolve`` would choose (real inputs)."""
    return sp_fft.next_fast_len(n_series + n_query - 1, True)


# ---------------------------------------------------------------------------
# Scalar kernels (single query, single series)
# ---------------------------------------------------------------------------


def squared_euclidean(a, b) -> float:
    """Plain squared Euclidean distance between two equal-length series."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.dot(diff, diff))


def euclidean_distance(a, b) -> float:
    """Euclidean distance between two equal-length series."""
    return float(np.sqrt(squared_euclidean(a, b)))


def sliding_mean_std(series, window: int, *, cache: SeriesCache | None = None):
    """Mean and std of every length-``window`` subsequence.

    Returns ``(means, stds)`` each of length ``N - L + 1``. With a
    ``cache``, the cumulative sums behind them are computed once per
    series and shared across windows and phases.
    """
    if cache is not None:
        return cache.sliding_mean_std(series, window)
    arr = np.asarray(series, dtype=np.float64)
    n_out = num_windows(arr.size, window)
    csum = np.concatenate([[0.0], np.cumsum(arr)])
    csum2 = np.concatenate([[0.0], np.cumsum(arr * arr)])
    sums = csum[window:] - csum[:-window]
    sums2 = csum2[window:] - csum2[:-window]
    means = sums / window
    variances = np.maximum(sums2 / window - means * means, 0.0)
    stds = np.sqrt(variances)
    assert means.size == n_out
    return means, stds


def _window_ssq(series: np.ndarray, window: int, cache: SeriesCache | None):
    """Sum of squares of every window (cached when possible)."""
    if cache is not None:
        return cache.window_ssq(series, window)
    csum2 = np.concatenate([[0.0], np.cumsum(series * series)])
    return csum2[window:] - csum2[:-window]


def sliding_dot_product(query, series, *, cache: SeriesCache | None = None):
    """Dot products of ``query`` with every window of ``series``.

    Returns an array of length ``N - L + 1``. FFT convolution for long
    inputs, a direct stride loop for tiny ones; with a ``cache``, the
    series' spectrum is reused across queries of any equal-length batch.
    """
    query = np.asarray(query, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    n_out = num_windows(series.size, query.size)
    if cache is not None:
        cache.counters.kernel_calls += 1
    if n_out <= _FFT_CUTOVER:
        windows = np.lib.stride_tricks.sliding_window_view(series, query.size)
        return windows @ query
    n_fft = _fft_size(series.size, query.size)
    if cache is not None:
        spec_series = cache.spectrum(series, n_fft)
        cache.counters.fft_count += 2  # query transform + inverse
    else:
        spec_series = sp_fft.rfft(series, n_fft)
    spec_query = sp_fft.rfft(query[::-1], n_fft)
    full = sp_fft.irfft(spec_series * spec_query, n_fft)
    return full[query.size - 1 : query.size - 1 + n_out]


def distance_profile(query, series, *, cache: SeriesCache | None = None):
    """Squared Euclidean distance of ``query`` to every window of ``series``.

    Non-normalized (raw values, per Def. 4 of the paper, *before* the 1/L
    factor). Returns an array of length ``N - L + 1``; tiny negative
    values from FFT round-off are clipped at zero.
    """
    query = np.asarray(query, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    if query.ndim != 1 or series.ndim != 1:
        raise ValidationError("distance_profile expects 1-D arrays")
    dots = sliding_dot_product(query, series, cache=cache)
    window_sq = _window_ssq(series, query.size, cache)
    profile = window_sq - 2.0 * dots + float(np.dot(query, query))
    return np.maximum(profile, 0.0)


def raw_distance_profile(query, series, *, cache: SeriesCache | None = None):
    """Non-normalized Euclidean distance profile (not squared)."""
    return np.sqrt(distance_profile(query, series, cache=cache))


def subsequence_distance(query, series, *, cache: SeriesCache | None = None) -> float:
    """The paper's Definition 4 distance ``dist(Tp, Tq)``.

    Length-normalized squared Euclidean distance of the shorter input
    against its best-matching window in the longer one; the arguments may
    be given in either order. With a ``cache``, the longer input's FFT
    spectrum and window statistics are reused across calls — pass the
    *same array objects* each time (the cache is identity-keyed), which
    is what turns the quadratic pair loops in utility scoring and
    pruning from one-FFT-per-pair into one-FFT-per-item.
    """
    a = np.asarray(query, dtype=np.float64)
    b = np.asarray(series, dtype=np.float64)
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        raise LengthError("subsequence_distance requires non-empty inputs")
    profile = distance_profile(a, b, cache=cache)
    return float(profile.min() / a.size)


def _check_finite_mass(query: np.ndarray, series: np.ndarray) -> None:
    if not np.all(np.isfinite(query)):
        raise ValidationError(
            "mass query contains NaN or inf; clean or interpolate the "
            "input (e.g. repro.datasets.perturb.add_dropout fills gaps) "
            "before computing distance profiles"
        )
    if not np.all(np.isfinite(series)):
        raise ValidationError(
            "mass series contains NaN or inf; z-normalized distances are "
            "undefined on non-finite windows — clean the input first"
        )


def mass(query, series, *, normalized: bool = True, cache: SeriesCache | None = None):
    """MASS distance profile of ``query`` against every window of ``series``.

    Mueen's Algorithm for Similarity Search: z-normalized Euclidean
    distances by default (the matrix-profile convention), via

          d_j^2 = 2 L (1 - (QT_j - L m_q m_j) / (L s_q s_j))

    with ``QT`` the sliding dot product and ``m``/``s`` the window means
    and standard deviations. Flat-window convention: a constant window
    z-normalizes to the zero vector, so flat-vs-non-flat distance is
    exactly ``sqrt(L)`` and flat-vs-flat is ``0``. With
    ``normalized=False``, raw Euclidean distances per the paper's Def. 4.
    Returns an array of length ``N - L + 1`` of non-squared distances;
    non-finite or non-1-D inputs raise
    :class:`repro.exceptions.ValidationError`.
    """
    query = np.asarray(query, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    if query.ndim != 1 or series.ndim != 1:
        raise ValidationError("mass expects 1-D arrays")
    _check_finite_mass(query, series)
    if not normalized:
        return raw_distance_profile(query, series, cache=cache)
    length = query.size
    q_mean = float(query.mean())
    q_std = float(query.std())
    means, stds = sliding_mean_std(series, length, cache=cache)
    dots = sliding_dot_product(query, series, cache=cache)

    q_flat = q_std < FLAT_STD
    t_flat = stds < FLAT_STD
    # Denominators are clamped to FLAT_STD, inputs are validated finite:
    # no divide/invalid can occur, so no errstate suppression is needed.
    corr = (dots - length * q_mean * means) / (
        length * max(q_std, FLAT_STD) * np.maximum(stds, FLAT_STD)
    )
    # Clip correlation into [-1, 1] against FFT round-off.
    corr = np.clip(corr, -1.0, 1.0)
    sq = 2.0 * length * (1.0 - corr)
    if q_flat:
        # Query z-normalizes to zeros: distance L to any non-flat window.
        sq = np.where(t_flat, 0.0, float(length))
    else:
        sq = np.where(t_flat, float(length), sq)
    return np.sqrt(np.maximum(sq, 0.0))


# ---------------------------------------------------------------------------
# Batched kernels (many queries and/or many series)
# ---------------------------------------------------------------------------


def _as_query_matrix(queries) -> np.ndarray:
    """Coerce a query batch into a 2-D ``(Q, L)`` float64 matrix."""
    if isinstance(queries, np.ndarray) and queries.ndim == 2:
        return np.asarray(queries, dtype=np.float64)
    arr = np.asarray(queries, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValidationError(
            "queries must be a 1-D array, a (Q, L) matrix, or a sequence "
            "of equal-length 1-D arrays"
        )
    return arr


def _batch_dots(
    queries: np.ndarray, series: np.ndarray, cache: SeriesCache | None
) -> np.ndarray:
    """Sliding dot products of ``(Q, L)`` queries over a 1-D or 2-D series.

    Returns ``(M, Q, n_out)`` for a ``(M, N)`` matrix and ``(1, Q,
    n_out)`` for a 1-D series. One batched FFT covers all series (cached
    across calls), one covers all queries; the products and inverse
    transforms run in blocks under ``_CHUNK_BYTES`` (see "Memory bound"
    in the module docstring).
    """
    X = series if series.ndim == 2 else series[None, :]
    n_queries, length = queries.shape
    n_series, n_points = X.shape
    n_out = num_windows(n_points, length)
    if cache is not None:
        # Scalar-equivalent accounting: M * Q query sweeps, on both
        # branches, so batched and scalar runs report comparable totals.
        cache.counters.kernel_calls += n_series * n_queries
    if n_out <= _FFT_CUTOVER:
        windows = np.lib.stride_tricks.sliding_window_view(X, length, axis=-1)
        out = np.empty((n_series, n_queries, n_out), dtype=np.float64)
        # Per-(series, query) matvec keeps bit parity with the scalar
        # direct path.
        for qi, q in enumerate(queries):
            for si in range(n_series):
                out[si, qi] = windows[si] @ q
        return out
    n_fft = _fft_size(n_points, length)
    if cache is not None:
        spec_x = cache.spectrum(series, n_fft).reshape(n_series, -1)
        cache.counters.fft_count += n_queries * (1 + n_series)
    else:
        spec_x = sp_fft.rfft(X, n_fft, axis=-1)
    spec_queries = sp_fft.rfft(queries[:, ::-1], n_fft, axis=-1)
    # Allocated after the spectra: allocating it first raised the peak RSS
    # of a 1000-series transform by ~0.6 MB (allocator reuse order).
    out = np.empty((n_series, n_queries, n_out), dtype=np.float64)
    rows = max(1, _CHUNK_BYTES // _intermediate_bytes_per_row(n_fft))
    if n_series <= rows:
        s_block, q_block = n_series, rows // n_series
    else:
        s_block, q_block = rows, 1
    for s_start in range(0, n_series, s_block):
        s_stop = min(s_start + s_block, n_series)
        for q_start in range(0, n_queries, q_block):
            q_stop = min(q_start + q_block, n_queries)
            prod = (
                spec_x[s_start:s_stop, None, :]
                * spec_queries[None, q_start:q_stop, :]
            )
            full = sp_fft.irfft(prod, n_fft, axis=-1)
            del prod
            out[s_start:s_stop, q_start:q_stop, :] = full[
                ..., length - 1 : length - 1 + n_out
            ]
    return out


def batch_sliding_dot(queries, series, *, cache: SeriesCache | None = None):
    """Sliding dot products of a query batch against one or many series.

    Parameters
    ----------
    queries:
        ``(Q, L)`` matrix (or a single 1-D query) of equal-length queries.
    series:
        1-D series of length ``N`` → returns ``(Q, N - L + 1)``; or a
        ``(M, N)`` matrix → returns ``(M, Q, N - L + 1)``.
    cache:
        Optional :class:`~repro.kernels.SeriesCache`; series spectra are
        computed once per FFT size and shared across calls.
    """
    queries = _as_query_matrix(queries)
    series = np.asarray(series, dtype=np.float64)
    if series.ndim not in (1, 2):
        raise ValidationError("series must be 1-D or a 2-D (M, N) matrix")
    if cache is not None:
        cache.counters.batch_calls += 1
    dots = _batch_dots(queries, series, cache)
    return dots if series.ndim == 2 else dots[0]


def batch_distance_profile(
    queries,
    series,
    *,
    cache: SeriesCache | None = None,
):
    """Raw squared distance profiles of a same-length query batch.

    The batched counterpart of :func:`distance_profile`: ``(Q, n_out)``
    for a 1-D series, ``(M, Q, n_out)`` for a ``(M, N)`` matrix.
    """
    queries = _as_query_matrix(queries)
    series = np.asarray(series, dtype=np.float64)
    dots = batch_sliding_dot(queries, series, cache=cache)
    window_sq = _window_ssq_any(series, queries.shape[1], cache)
    # Per-query np.dot keeps bit parity with the scalar kernel.
    q_sq = np.array([float(np.dot(q, q)) for q in queries])
    if series.ndim == 1:
        profile = window_sq[None, :] - 2.0 * dots + q_sq[:, None]
    else:
        profile = window_sq[:, None, :] - 2.0 * dots + q_sq[None, :, None]
    return np.maximum(profile, 0.0)


def _window_ssq_any(series: np.ndarray, window: int, cache: SeriesCache | None):
    if cache is not None:
        return cache.window_ssq(series, window)
    if series.ndim == 1:
        csum2 = np.concatenate([[0.0], np.cumsum(series * series)])
        return csum2[window:] - csum2[:-window]
    zeros = np.zeros(series.shape[:-1] + (1,), dtype=np.float64)
    csum2 = np.concatenate([zeros, np.cumsum(series * series, axis=-1)], axis=-1)
    return csum2[..., window:] - csum2[..., :-window]


def batch_mass(
    queries,
    series,
    *,
    normalized: bool = True,
    cache: SeriesCache | None = None,
):
    """MASS distance profiles for a batch of same-length queries.

    The batched counterpart of :func:`mass`: z-normalized (default) or raw
    Euclidean distance profiles, ``(Q, n_out)`` against a 1-D series or
    ``(M, Q, n_out)`` against a ``(M, N)`` series set. Row ``q`` is
    bit-identical to ``mass(queries[q], series)``.
    """
    queries = _as_query_matrix(queries)
    series = np.asarray(series, dtype=np.float64)
    if series.ndim not in (1, 2):
        raise ValidationError("series must be 1-D or a 2-D (M, N) matrix")
    _check_finite_mass(queries, series)
    if not normalized:
        return np.sqrt(batch_distance_profile(queries, series, cache=cache))
    length = queries.shape[1]
    # Per-query scalar stats keep bit parity with the scalar kernel.
    q_means = np.array([float(q.mean()) for q in queries])
    q_stds = np.array([float(q.std()) for q in queries])
    q_denoms = np.array([length * max(s, FLAT_STD) for s in q_stds])
    means, stds = _mean_std_any(series, length, cache)
    dots = batch_sliding_dot(queries, series, cache=cache)

    t_clamped = np.maximum(stds, FLAT_STD)
    if series.ndim == 1:
        corr = (dots - length * q_means[:, None] * means[None, :]) / (
            q_denoms[:, None] * t_clamped[None, :]
        )
        t_flat = (stds < FLAT_STD)[None, :]
        q_flat = (q_stds < FLAT_STD)[:, None]
    else:
        corr = (dots - length * q_means[None, :, None] * means[:, None, :]) / (
            q_denoms[None, :, None] * t_clamped[:, None, :]
        )
        t_flat = (stds < FLAT_STD)[:, None, :]
        q_flat = (q_stds < FLAT_STD)[None, :, None]
    corr = np.clip(corr, -1.0, 1.0)
    sq = 2.0 * length * (1.0 - corr)
    sq = np.where(
        q_flat,
        np.where(t_flat, 0.0, float(length)),
        np.where(t_flat, float(length), sq),
    )
    return np.sqrt(np.maximum(sq, 0.0))


def _mean_std_any(series: np.ndarray, window: int, cache: SeriesCache | None):
    if cache is not None:
        return cache.sliding_mean_std(series, window)
    if series.ndim == 1:
        return sliding_mean_std(series, window)
    zeros = np.zeros(series.shape[:-1] + (1,), dtype=np.float64)
    csum = np.concatenate([zeros, np.cumsum(series, axis=-1)], axis=-1)
    csum2 = np.concatenate([zeros, np.cumsum(series * series, axis=-1)], axis=-1)
    sums = csum[..., window:] - csum[..., :-window]
    sums2 = csum2[..., window:] - csum2[..., :-window]
    means = sums / window
    variances = np.maximum(sums2 / window - means * means, 0.0)
    return means, np.sqrt(variances)


def batch_min_distance(
    queries,
    X,
    *,
    cache: SeriesCache | None = None,
):
    """Def.-4 distances between every query and every series of ``X``.

    The batched replacement for the historical per-query
    ``pairwise_subsequence_distance`` loop (and the engine behind the
    shapelet transform). Queries may have *mixed lengths*: they are
    grouped by length, each group runs as one batched FFT pass, and the
    series spectra/statistics are shared across groups via the cache.

    Parameters
    ----------
    queries:
        Sequence of 1-D arrays (e.g. shapelet values), or a ``(Q, L)``
        matrix.
    X:
        ``(M, N)`` series matrix.
    cache:
        Optional :class:`~repro.kernels.SeriesCache`.

    Returns
    -------
    ``(M, Q)`` matrix ``d[j, i] = dist(X[j], queries[i])`` — the paper's
    shapelet-transform layout (Def. 7), bit-identical to the scalar loop.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-D (M, N) matrix")
    query_arrays = [np.asarray(q, dtype=np.float64) for q in queries]
    for i, q in enumerate(query_arrays):
        if q.ndim != 1:
            raise ValidationError("batch_min_distance queries must be 1-D")
        if q.size > X.shape[1]:
            raise LengthError(
                f"query {i} of length {q.size} exceeds series length {X.shape[1]}"
            )
    if cache is not None:
        cache.counters.batch_calls += 1
    out = np.empty((X.shape[0], len(query_arrays)), dtype=np.float64)
    by_length: dict[int, list[int]] = {}
    for i, q in enumerate(query_arrays):
        by_length.setdefault(q.size, []).append(i)
    for length, idxs in by_length.items():
        group = np.vstack([query_arrays[i] for i in idxs])
        profiles = batch_distance_profile(group, X, cache=cache)
        out[:, idxs] = profiles.min(axis=-1) / length
    return out


# ---------------------------------------------------------------------------
# Direct (streaming-equivalent) kernels
# ---------------------------------------------------------------------------


def direct_window_dots(series, query, start: int = 0, stop: int | None = None):
    """Per-window dot products of ``query`` with ``series``, direct method.

    Computes ``dot_j = series[j:j+L] . query`` for window starts in
    ``[start, stop)`` with one BLAS dot per window — no FFT. This is the
    kernel both the batch :func:`direct_min_distance` and the incremental
    :class:`~repro.streaming.StreamingMatcher` call, which is what makes
    the streaming transform *bit-identical* to the batch direct kernel:
    each window's dot product is evaluated by the same routine on the
    same contiguous slice, regardless of how much of the series has
    arrived.
    """
    series = np.ascontiguousarray(series, dtype=np.float64)
    query = np.ascontiguousarray(query, dtype=np.float64)
    length = query.size
    n_out = num_windows(series.size, length)
    if stop is None:
        stop = n_out
    if not 0 <= start <= stop <= n_out:
        raise ValidationError(
            f"window range [{start}, {stop}) outside [0, {n_out})"
        )
    out = np.empty(stop - start, dtype=np.float64)
    for j in range(start, stop):
        out[j - start] = np.dot(series[j : j + length], query)
    return out


def direct_distance_profile(series, query, window_sq, q_ssq: float,
                            start: int = 0, stop: int | None = None):
    """Squared-distance profile over a window range, direct method.

    ``window_sq`` must hold the window sums of squares for exactly the
    requested range (from :class:`~repro.kernels.RollingStats` or a
    :class:`~repro.kernels.SeriesCache` slice); ``q_ssq`` is
    ``float(np.dot(query, query))``. Same elementwise formula as
    :func:`distance_profile`, with the sliding dots computed directly.
    """
    dots = direct_window_dots(series, query, start, stop)
    profile = window_sq - 2.0 * dots + q_ssq
    return np.maximum(profile, 0.0)


def direct_min_distance(queries, X, *, cache: SeriesCache | None = None):
    """Def.-4 distances computed by the direct method (no FFT).

    Same ``(M, Q)`` layout and formulas as :func:`batch_min_distance`,
    but every sliding dot product is an explicit per-window BLAS dot
    instead of an FFT convolution. Slower at batch scale — its purpose is
    the *streaming equivalence anchor*: a chunk-fed
    :class:`~repro.streaming.StreamingTransform` is bit-identical to this
    path on the full series, because both call
    :func:`direct_window_dots` / :func:`direct_distance_profile` on the
    same windows. Against the FFT engine it agrees to FFT round-off
    (~1e-9 relative), which the streaming test suite also pins.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-D (M, N) matrix")
    query_arrays = [np.ascontiguousarray(q, dtype=np.float64) for q in queries]
    for i, q in enumerate(query_arrays):
        if q.ndim != 1:
            raise ValidationError("direct_min_distance queries must be 1-D")
        if q.size > X.shape[1]:
            raise LengthError(
                f"query {i} of length {q.size} exceeds series length {X.shape[1]}"
            )
    if cache is not None:
        cache.counters.batch_calls += 1
    q_ssqs = [float(np.dot(q, q)) for q in query_arrays]
    out = np.empty((X.shape[0], len(query_arrays)), dtype=np.float64)
    ssq_by_length = {
        length: _window_ssq_any(X, length, cache)
        for length in {q.size for q in query_arrays}
    }
    for j in range(X.shape[0]):
        row = X[j]
        for i, q in enumerate(query_arrays):
            ssq = ssq_by_length[q.size][j]
            profile = direct_distance_profile(row, q, ssq, q_ssqs[i])
            out[j, i] = profile.min() / q.size
    return out
