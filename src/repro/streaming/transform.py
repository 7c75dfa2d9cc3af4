"""Chunk-fed shapelet transform: best-so-far feature vector per append.

:class:`StreamingTransform` exposes the shapelet-transform embedding of a
*growing* series: after every ``append(chunk)`` it returns the distance
vector computed over all samples seen so far. Once the stream ends, the
vector is bit-identical to the batch
``direct_min_distance(queries, series[None], cache=SeriesCache())`` row
(see :mod:`repro.streaming.matcher` for why), so a model fitted on batch
features can consume streaming features without recalibration.
"""

from __future__ import annotations

import numpy as np

from repro.core.transform import ShapeletTransform
from repro.exceptions import ValidationError
from repro.streaming.matcher import StreamingMatcher


class StreamingTransform:
    """Incremental counterpart of :class:`repro.core.transform.ShapeletTransform`.

    Parameters
    ----------
    shapelets:
        The shapelets defining the embedding —
        :class:`repro.types.Shapelet` instances or raw 1-D arrays.
    """

    def __init__(self, shapelets) -> None:
        self._matcher = StreamingMatcher(shapelets)

    @classmethod
    def from_transform(cls, transform: ShapeletTransform) -> "StreamingTransform":
        """Stream against a fitted batch transform's shapelet set.

        Only the Euclidean metric has a streaming equivalent (the DTW
        variant enumerates strided windows and has no incremental form).
        """
        if transform.shapelets_ is None:
            raise ValidationError("the batch transform is not fitted")
        if transform.metric != "euclidean":
            raise ValidationError(
                "only the euclidean metric has a streaming counterpart, "
                f"got {transform.metric!r}"
            )
        return cls(transform.shapelets_)

    @property
    def n_features(self) -> int:
        """Dimensionality of the embedding (= number of shapelets)."""
        return self._matcher.n_shapelets

    @property
    def n(self) -> int:
        """Samples of the series seen so far."""
        return self._matcher.n

    @property
    def ready(self) -> bool:
        """True once every feature is finite (all shapelets have fit)."""
        return self._matcher.ready

    def append(self, chunk) -> np.ndarray:
        """Feed a chunk; return the best-so-far ``(n_features,)`` vector.

        Features of shapelets longer than the series seen so far are
        ``+inf`` (check :attr:`ready` before handing the vector to a
        model trained on finite features).
        """
        self._matcher.append(chunk)
        return self.features

    @property
    def features(self) -> np.ndarray:
        """Current best-so-far distance vector, shape ``(n_features,)``."""
        return self._matcher.distances()


__all__ = ["StreamingTransform"]
