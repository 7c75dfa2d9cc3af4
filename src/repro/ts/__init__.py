"""Time-series primitives: containers, preprocessing, windows, DTW.

This subpackage is the lowest layer of the reproduction. Everything above it
(matrix profile, instance profile, DABF, baselines) is written against these
functions, which follow the paper's notation: a time series ``T`` is a 1-D
float array, a dataset ``D`` is a 2-D array of equal-length series plus an
integer label vector.
"""

from repro.ts.concat import ConcatenatedSeries, concatenate_series
from repro.ts.dtw import dtw_distance, lb_keogh
from repro.ts.preprocessing import (
    linear_interpolate_resample,
    moving_average,
    znormalize,
)
from repro.ts.series import Dataset, validate_labels, validate_series, validate_series_matrix
from repro.ts.windows import num_windows, sliding_window_view, subsequences_of

__all__ = [
    "ConcatenatedSeries",
    "Dataset",
    "concatenate_series",
    "dtw_distance",
    "lb_keogh",
    "linear_interpolate_resample",
    "moving_average",
    "num_windows",
    "sliding_window_view",
    "subsequences_of",
    "validate_labels",
    "validate_series",
    "validate_series_matrix",
    "znormalize",
]
