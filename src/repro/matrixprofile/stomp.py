"""STOMP: the O(N^2) incremental matrix-profile computation.

Row ``i`` of the all-pairs dot-product matrix follows from row ``i-1`` in
O(N) via

    QT[i, j] = QT[i-1, j-1] - t[i-1] u[j-1] + t[i+L-1] u[j+L-1]

(Zhu et al., "Matrix Profile II", ICDM 2016). Both the self-join (one series
against itself, with a trivial-match exclusion zone) and the AB-join (every
window of A against all of B) are implemented; a validity mask lets callers
exclude windows that cross instance junctions in concatenated series.

The recurrence is sequential in ``i``, so the row loop stays; what it
costs is numpy call overhead on short rows. :func:`stomp_self_join_batch`
therefore advances B independent problems (each with its own series,
window, masks and cache) through one shared row loop on ``(B, n_max)``
arrays. Every element goes through the same IEEE operations in the same
order as a lone problem would -- numpy rounds each ufunc call and never
fuses them -- and ``argmin`` returns the first minimum, so a batched
profile is bit-identical to the one computed alone. Working memory is
O(B * n_max); no (n x n) matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.kernels import SeriesCache, sliding_dot_product, sliding_mean_std
from repro.matrixprofile.profile import MatrixProfile
from repro.ts.preprocessing import FLAT_STD
from repro.ts.windows import num_windows


def default_exclusion(window: int) -> int:
    """Default trivial-match exclusion half-width: ``ceil(L / 4)``.

    The paper's footnote 1 requires excluding neighbours located near the
    query window; L/4 is the standard choice in the MP literature.
    """
    return max(1, int(np.ceil(window / 4)))


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


def _checked_mask(mask, n_out: int, message: str) -> np.ndarray:
    """``mask`` as a boolean array over ``n_out`` window starts."""
    if mask is None:
        return np.ones(n_out, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n_out,):
        raise ValidationError(message)
    return mask


@dataclass(frozen=True)
class SelfJoin:
    """One problem for :func:`stomp_self_join_batch`.

    The fields are the parameters of :func:`stomp_self_join`, which is the
    one-problem call of the batch kernel.
    """

    series: np.ndarray
    window: int
    exclusion: int | None = None
    valid_mask: np.ndarray | None = None
    normalized: bool = True
    groups: np.ndarray | None = None
    cache: SeriesCache | None = None


@dataclass(frozen=True)
class _Join:
    """One join, prepared for the shared row loop.

    Row ``i`` compares window ``i`` of ``row_series`` with every window of
    ``col_series`` (the same array for a self-join). ``band`` is the
    trivial-match half-width, ``None`` when no band applies.
    """

    row_series: np.ndarray
    col_series: np.ndarray
    window: int
    first_row: np.ndarray  # QT[0, :]
    first_col: np.ndarray  # QT[:, 0]
    row_stats: tuple  # (means, stds, ssq) as _window_stats returns them
    col_stats: tuple
    row_valid: np.ndarray
    col_invalid: np.ndarray
    groups: np.ndarray | None
    band: int | None

    @property
    def n_rows(self) -> int:
        return self.first_col.size

    @property
    def n_cols(self) -> int:
        return self.first_row.size


def _band_inside_groups(valid: np.ndarray, groups: np.ndarray, band: int) -> bool:
    """Whether every valid window's exclusion band is masked anyway.

    True when no two valid windows of different groups lie within ``band``
    of each other: then the band only covers windows of the row's own
    group or invalid ones, which the group and validity masks already
    exclude. This holds for concatenated samples, whose junction windows
    are invalid, and lets the row loop skip the band.
    """
    for d in range(1, min(band, valid.size - 1) + 1):
        if np.any(valid[:-d] & valid[d:] & (groups[:-d] != groups[d:])):
            return False
    return True


def _prepare_self_join(problem: SelfJoin) -> tuple[_Join, int]:
    """Validate ``problem``; return its prepared join and exclusion."""
    series = np.asarray(problem.series, dtype=np.float64)
    if series.ndim != 1:
        raise ValidationError("stomp_self_join expects a 1-D series")
    window = problem.window
    n_out = num_windows(series.size, window)
    exclusion = problem.exclusion
    if exclusion is None:
        exclusion = default_exclusion(window)
    valid_mask = _checked_mask(
        problem.valid_mask, n_out, f"valid_mask must have shape ({n_out},), got "
        f"{np.shape(problem.valid_mask)}",
    )
    groups = problem.groups
    band: int | None = exclusion
    if groups is not None:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (n_out,):
            raise ValidationError(
                f"groups must have shape ({n_out},), got {groups.shape}"
            )
        if _band_inside_groups(valid_mask, groups, exclusion):
            band = None
    if band is not None and band < 0:
        band = None  # an empty band excludes nothing
    stats = _window_stats(series, window, problem.normalized, problem.cache)
    first_row = sliding_dot_product(series[:window], series, cache=problem.cache)
    return _Join(
        series, series, window, first_row,
        first_row,  # self-join symmetry: QT[i, 0] == QT[0, i]
        stats, stats, valid_mask, ~valid_mask, groups, band,
    ), exclusion


def _stack_cols(joins, width: int, pick, fill: float | bool, dtype=np.float64):
    """``(B, width)`` array of per-join column vectors, padded with ``fill``."""
    out = np.full((len(joins), width), fill, dtype=dtype)
    for b, job in enumerate(joins):
        values = pick(job)
        out[b, : values.size] = values
    return out


def _stack_rows(
    joins, height: int, pick, fill: float | bool, dtype=np.float64, start: int = 0
):
    """``(height, B)`` array of per-join row scalars from row ``start`` on,
    padded with ``fill``."""
    out = np.full((height, len(joins)), fill, dtype=dtype)
    for b, job in enumerate(joins):
        values = pick(job)
        out[start : start + values.size, b] = values
    return out


def _join_rows(joins: list[_Join], normalized: bool):
    """Run ``joins`` (all of one distance flavour) through one row loop.

    Returns per-join ``(values, indices)``. Row ``i`` of every join is
    computed by the same sequence of elementwise operations a lone join
    would use:

    * QT update: ``(qt[:-1] - t[i-1]*lo) + t[i+L-1]*hi``, then ``qt[0]``
      from the first column;
    * normalized: ``qt - (w*m_a)*means``, over ``(w*max(s_a,F))*max(stds,F)``,
      clipped to [-1, 1], then ``(2w)*(1-corr)``; flat columns become
      ``w`` and a flat row becomes ``0``/``w`` (flat/non-flat column);
    * raw: ``max((ssq_b - 2*qt) + ssq_a, 0)``;
    * masked columns (invalid, same group, exclusion band) become ``inf``,
      then the first-index ``argmin`` picks the neighbour.

    Padding (rows and columns past a join's own size) is masked and its
    results discarded.
    """
    n_rows = max(job.n_rows for job in joins)
    n_cols = max(job.n_cols for job in joins)
    n_batch = len(joins)
    windows = np.array([float(job.window) for job in joins])[:, None]

    lo = _stack_cols(joins, n_cols - 1, lambda j: j.col_series[: j.n_cols - 1], 0.0)
    hi = _stack_cols(
        joins, n_cols - 1,
        lambda j: j.col_series[j.window : j.window + j.n_cols - 1], 0.0,
    )
    qt = _stack_cols(joins, n_cols, lambda j: j.first_row, 0.0)
    # Row i drops t[i-1] and adds t[i+L-1].
    drop = _stack_rows(
        joins, n_rows, lambda j: j.row_series[: j.n_rows - 1], 0.0, start=1
    )
    add = _stack_rows(
        joins, n_rows,
        lambda j: j.row_series[j.window : j.window + j.n_rows - 1], 0.0, start=1,
    )
    first_col = _stack_rows(joins, n_rows, lambda j: j.first_col, 0.0)
    row_ok = _stack_rows(joins, n_rows, lambda j: j.row_valid, False, bool)
    invalid = _stack_cols(joins, n_cols, lambda j: j.col_invalid, True, bool)

    # Column patches, written after the distance formula: invalid columns
    # become inf and (normalized) flat columns become w.
    flat_rows: dict[int, np.ndarray] = {}
    if normalized:
        means = _stack_cols(joins, n_cols, lambda j: j.col_stats[0], 0.0)
        col_stds = _stack_cols(joins, n_cols, lambda j: j.col_stats[1], 1.0)
        smax = np.maximum(col_stds, FLAT_STD)
        col_flat = col_stds < FLAT_STD
        patch_at = invalid | col_flat
        patch = np.where(invalid, np.inf, windows)
        flat_row = np.where(invalid, np.inf, np.where(col_flat, 0.0, windows))
        wm = _stack_rows(joins, n_rows, lambda j: j.window * j.row_stats[0], 0.0)
        ws = _stack_rows(
            joins, n_rows,
            lambda j: j.window * np.maximum(j.row_stats[1], FLAT_STD), 1.0,
        )
        row_flat = row_ok & _stack_rows(
            joins, n_rows, lambda j: j.row_stats[1] < FLAT_STD, False, bool
        )
        for i in np.flatnonzero(row_flat.any(axis=1)):
            flat_rows[int(i)] = np.flatnonzero(row_flat[i])
        two_w = 2.0 * windows
        den = np.empty((n_batch, n_cols))
    else:
        ssq = _stack_cols(joins, n_cols, lambda j: j.col_stats[2], 0.0)
        row_ssq = _stack_rows(joins, n_rows, lambda j: j.row_stats[2], 0.0)
        patch_at, patch = invalid, np.inf

    grouped = any(job.groups is not None for job in joins)
    if grouped:
        # Rows of ungrouped joins carry -2, their columns -1: never equal.
        def groups(j):
            return j.groups if j.groups is not None else np.empty(0)

        col_group = _stack_cols(joins, n_cols, groups, -1, np.int64)
        row_group = _stack_rows(joins, n_rows, groups, -2, np.int64)
        mask = np.empty((n_batch, n_cols), dtype=bool)
    band = None
    if any(job.band is not None for job in joins):
        # band[:, n_rows - i : n_rows - i + n_cols] is row i's band mask.
        offsets = np.abs(np.arange(n_rows + n_cols) - n_rows)
        half = np.array([-1 if job.band is None else job.band for job in joins])
        band = offsets[None, :] <= half[:, None]

    # Per-row scalars as (B, 1) columns and fixed views of qt: the loop
    # body then does no indexing work beyond one row lookup per array.
    drop, add = drop[:, :, None], add[:, :, None]
    if normalized:
        wm, ws = wm[:, :, None], ws[:, :, None]
    else:
        row_ssq = row_ssq[:, :, None]
    if grouped:
        row_group = row_group[:, :, None]
    qt_head, qt_tail, qt_first = qt[:, :-1], qt[:, 1:], qt[:, 0]
    patched = bool(patch_at.any())
    sq = np.empty((n_batch, n_cols))
    dropped = np.empty((n_batch, n_cols - 1))
    kept = np.empty((n_batch, n_cols - 1))
    flat_index = np.arange(n_batch) * n_cols
    best = np.full((n_rows, n_batch), np.inf)
    arg = np.zeros((n_rows, n_batch), dtype=np.int64)
    any_ok = row_ok.any(axis=1)
    for i in range(n_rows):
        if i > 0:
            np.multiply(drop[i], lo, out=dropped)
            np.subtract(qt_head, dropped, out=kept)
            np.multiply(add[i], hi, out=dropped)
            np.add(kept, dropped, out=qt_tail)
            qt_first[:] = first_col[i]
        if not any_ok[i]:
            continue
        if normalized:
            np.multiply(wm[i], means, out=sq)
            np.subtract(qt, sq, out=sq)
            np.multiply(ws[i], smax, out=den)
            np.divide(sq, den, out=sq)
            np.clip(sq, -1.0, 1.0, out=sq)
            np.subtract(1.0, sq, out=sq)
            np.multiply(two_w, sq, out=sq)
        else:
            np.multiply(2.0, qt, out=sq)
            np.subtract(ssq, sq, out=sq)
            np.add(sq, row_ssq[i], out=sq)
            np.maximum(sq, 0.0, out=sq)
        if patched:
            np.copyto(sq, patch, where=patch_at)
        if flat_rows:
            flat = flat_rows.get(i)
            if flat is not None:
                sq[flat] = flat_row[flat]
        if grouped:
            np.equal(col_group, row_group[i], out=mask)
            if band is not None:
                np.logical_or(mask, band[:, n_rows - i : n_rows - i + n_cols], out=mask)
            np.copyto(sq, np.inf, where=mask)
        elif band is not None:
            np.copyto(sq, np.inf, where=band[:, n_rows - i : n_rows - i + n_cols])
        found = sq.argmin(axis=1)
        arg[i] = found
        best[i] = sq.take(found + flat_index)

    ok = row_ok & np.isfinite(best)
    values = np.sqrt(best, out=np.full_like(best, np.inf), where=ok)
    indices = np.where(ok, arg, -1)
    return [
        (values[: job.n_rows, b].copy(), indices[: job.n_rows, b].copy())
        for b, job in enumerate(joins)
    ]


def stomp_self_join_batch(problems: list[SelfJoin]) -> list[MatrixProfile]:
    """Matrix profiles of several independent self-joins, in one row loop.

    Each result is bit-identical to ``stomp_self_join`` on that problem
    alone (see the module docstring). Problems are prepared in order, so
    a :class:`~repro.kernels.SeriesCache` shared by several of them sees
    the same sequence of lookups as sequential calls would. Problems of
    the two distance flavours run in separate loops.
    """
    prepared = [_prepare_self_join(problem) for problem in problems]
    results: list[MatrixProfile | None] = [None] * len(problems)
    for normalized in (True, False):
        members = [
            k for k, problem in enumerate(problems)
            if problem.normalized == normalized
        ]
        if not members:
            continue
        rows = _join_rows([prepared[k][0] for k in members], normalized)
        for k, (values, indices) in zip(members, rows):
            job, exclusion = prepared[k]
            results[k] = MatrixProfile(
                values=values,
                indices=indices,
                window=job.window,
                exclusion=exclusion,
                normalized=normalized,
                valid_mask=job.row_valid,
            )
    return results


def stomp_self_join(
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
    problem = SelfJoin(series, window, exclusion, valid_mask, normalized, groups, cache)
    return stomp_self_join_batch([problem])[0]


def ab_join(
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
    valid_mask_a = _checked_mask(valid_mask_a, n_a, "valid_mask_a has wrong shape")
    valid_mask_b = _checked_mask(valid_mask_b, n_b, "valid_mask_b has wrong shape")

    stats_b = _window_stats(series_b, window, normalized, cache)
    stats_a = _window_stats(series_a, window, normalized, cache)
    first_row = sliding_dot_product(series_a[:window], series_b, cache=cache)
    first_col = sliding_dot_product(series_b[:window], series_a, cache=cache)
    job = _Join(
        series_a, series_b, window, first_row, first_col,
        stats_a, stats_b, valid_mask_a, ~valid_mask_b, None, None,
    )
    [(values, indices)] = _join_rows([job], normalized)
    return MatrixProfile(
        values=values,
        indices=indices,
        window=window,
        exclusion=0,
        normalized=normalized,
        valid_mask=valid_mask_a,
    )
