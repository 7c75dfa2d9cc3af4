"""Container for labelled multivariate (multi-dimensional) time series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.ts.series import Dataset, validate_labels


@dataclass
class MultivariateDataset:
    """An ``(M, D, N)`` multivariate dataset: M instances, D dimensions.

    Labels follow the same contiguous-remap convention as
    :class:`repro.ts.series.Dataset`; :meth:`dimension` views one variable
    as a univariate dataset sharing the label vector, which is exactly what
    per-dimension discovery needs.
    """

    X: np.ndarray
    y: np.ndarray
    name: str = ""
    classes_: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.X, dtype=np.float64)
        if arr.ndim != 3:
            raise ValidationError(
                f"multivariate X must be (M, D, N), got shape {arr.shape}"
            )
        if arr.shape[0] == 0 or arr.shape[1] == 0 or arr.shape[2] == 0:
            raise ValidationError("multivariate X must be non-empty in every axis")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("multivariate X contains NaN or infinite values")
        self.X = arr
        raw = validate_labels(self.y, arr.shape[0])
        self.classes_, inverse = np.unique(raw, return_inverse=True)
        self.y = inverse.astype(np.int64)

    @property
    def n_instances(self) -> int:
        """Number of instances M."""
        return int(self.X.shape[0])

    @property
    def n_series(self) -> int:
        """Number of instances M (the name a run manifest reads)."""
        return self.n_instances

    @property
    def n_dimensions(self) -> int:
        """Number of variables D."""
        return int(self.X.shape[1])

    @property
    def series_length(self) -> int:
        """Per-dimension series length N."""
        return int(self.X.shape[2])

    @property
    def n_classes(self) -> int:
        """Number of distinct classes."""
        return int(self.classes_.size)

    def dimension(self, dim: int) -> Dataset:
        """One variable as a univariate :class:`Dataset` (shared labels)."""
        if not 0 <= dim < self.n_dimensions:
            raise ValidationError(
                f"dimension {dim} out of range for {self.n_dimensions}"
            )
        return Dataset(
            X=self.X[:, dim, :],
            y=self.classes_[self.y],
            name=f"{self.name}[dim={dim}]",
        )

    def __len__(self) -> int:
        return self.n_instances
