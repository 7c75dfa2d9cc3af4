"""Multivariate time-series classification with IPS (paper's future work).

The conclusion of the paper names "apply[ing] IPS for multivariate TSC"
as future work; this subpackage provides the natural extension: per-
dimension shapelet discovery with the univariate pipeline, followed by a
concatenated shapelet transform over all dimensions (the
dimension-independent strategy of ShapeNet-style baselines), classified
through the same :class:`~repro.core.model.ShapeletModel` as univariate
IPS.
"""

from repro.multivariate.dataset import MultivariateDataset
from repro.multivariate.pipeline import MultivariateIPSClassifier

__all__ = ["MultivariateDataset", "MultivariateIPSClassifier"]
