"""Tests for repro.core.transform (Def. 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.transform import ShapeletTransform
from repro.exceptions import NotFittedError, ValidationError
from repro.kernels import subsequence_distance
from repro.types import Shapelet


def _shapelets(rng, lengths=(6, 10)):
    return [
        Shapelet(values=rng.normal(size=length), label=i % 2)
        for i, length in enumerate(lengths)
    ]


class TestShapeletTransform:
    def test_shape(self, rng):
        st = ShapeletTransform(_shapelets(rng))
        X = rng.normal(size=(5, 40))
        features = st.transform(X)
        assert features.shape == (5, 2)

    def test_values_match_def4(self, rng):
        shapelets = _shapelets(rng)
        st = ShapeletTransform(shapelets)
        X = rng.normal(size=(3, 40))
        features = st.transform(X)
        for j in range(3):
            for i, shp in enumerate(shapelets):
                assert features[j, i] == pytest.approx(
                    subsequence_distance(shp.values, X[j])
                )

    def test_1d_input_promoted(self, rng):
        st = ShapeletTransform(_shapelets(rng))
        features = st.transform(rng.normal(size=40))
        assert features.shape == (1, 2)

    def test_contained_shapelet_zero_feature(self, rng):
        X = rng.normal(size=(1, 40))
        shp = Shapelet(values=X[0, 10:20].copy(), label=0)
        features = ShapeletTransform([shp]).transform(X)
        assert features[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_unfitted_rejected(self, rng):
        st = ShapeletTransform()
        with pytest.raises(NotFittedError):
            st.transform(rng.normal(size=(2, 20)))
        with pytest.raises(NotFittedError):
            _ = st.n_features

    def test_empty_shapelets_rejected(self):
        with pytest.raises(ValidationError):
            ShapeletTransform([])

    def test_n_features(self, rng):
        assert ShapeletTransform(_shapelets(rng)).n_features == 2
