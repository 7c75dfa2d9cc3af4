"""Tests for the runnable baseline methods (BASE, BSPCOVER, FS, LTS, ST, SD)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bspcover import BSPCover
from repro.baselines.fast_shapelets import FastShapelets
from repro.baselines.learning_shapelets import LearningShapelets
from repro.baselines.mp_base import MPBaseline
from repro.baselines.scalable_discovery import ScalableDiscovery
from repro.baselines.shapelet_transform_st import ShapeletTransformST
from repro.datasets.generators import make_planted_dataset
from repro.exceptions import NotFittedError, ValidationError
from repro.ts.series import Dataset


@pytest.fixture(scope="module")
def planted():
    full = make_planted_dataset(n_classes=2, n_instances=44, length=70, seed=13)
    train = Dataset(X=full.X[:16], y=full.classes_[full.y[:16]], name="train")
    test = Dataset(X=full.X[16:], y=full.classes_[full.y[16:]], name="test")
    return train, test


FAST_METHODS = [
    ("BASE", lambda: MPBaseline(k=3, length_ratios=(0.2, 0.4), seed=0)),
    ("BSPCOVER", lambda: BSPCover(k=3, length_ratios=(0.2, 0.4), seed=0)),
    ("FS", lambda: FastShapelets(k=3, length_ratios=(0.2, 0.4), refine_top=6, seed=0)),
    ("ST", lambda: ShapeletTransformST(k=3, max_candidates=120, length_ratios=(0.2, 0.4), seed=0)),
    ("SD", lambda: ScalableDiscovery(k=3, samples_per_class=40, seed=0)),
]


@pytest.mark.parametrize("name,builder", FAST_METHODS)
class TestTransformBaselinesCommon:
    def test_fit_discovers_shapelets(self, planted, name, builder):
        train, _test = planted
        model = builder().fit_dataset(train)
        assert model.shapelets_
        assert model.discovery_seconds_ > 0.0

    def test_accuracy_above_chance(self, planted, name, builder):
        train, test = planted
        model = builder().fit_dataset(train)
        accuracy = model.score(test.X, test.classes_[test.y])
        assert accuracy > 0.6, f"{name} accuracy {accuracy}"

    def test_shapelet_lengths_within_grid(self, planted, name, builder):
        train, _test = planted
        model = builder().fit_dataset(train)
        max_allowed = train.series_length
        assert all(1 <= s.length <= max_allowed for s in model.shapelets_)

    def test_unfitted_predict_rejected(self, rng, name, builder):
        with pytest.raises(NotFittedError):
            builder().predict(rng.normal(size=(2, 70)))


class TestMPBaselineSpecifics:
    def test_per_class_shapelets(self, planted):
        train, _test = planted
        model = MPBaseline(k=2, seed=0).fit_dataset(train)
        labels = {s.label for s in model.shapelets_}
        assert labels == {0, 1}

    def test_provenance_round_trips(self, planted):
        train, _test = planted
        model = MPBaseline(k=2, seed=0).fit_dataset(train)
        for shp in model.shapelets_:
            row = train.X[shp.source_instance]
            assert np.allclose(row[shp.start : shp.start + shp.length], shp.values)

    def test_small_exclusion_yields_similar_picks(self, planted):
        """Issue 2.2: with exclusion=1 the top-k cluster at few positions."""
        train, _test = planted
        tight = MPBaseline(k=5, exclusion=1, seed=0).fit_dataset(train)
        spread = MPBaseline(k=5, exclusion=15, seed=0).fit_dataset(train)

        def mean_pairwise_start_gap(model):
            gaps = []
            by_class: dict[int, list[int]] = {}
            for s in model.shapelets_:
                by_class.setdefault(s.label, []).append(s.start)
            for starts in by_class.values():
                for i in range(len(starts)):
                    for j in range(i + 1, len(starts)):
                        gaps.append(abs(starts[i] - starts[j]))
            return np.mean(gaps) if gaps else 0.0

        assert mean_pairwise_start_gap(tight) <= mean_pairwise_start_gap(spread) + 20

    def test_single_class_rejected(self):
        ds = make_planted_dataset(n_classes=1, n_instances=4, length=60, seed=0)
        with pytest.raises(ValidationError):
            MPBaseline().discover(ds)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            MPBaseline(k=0)
        with pytest.raises(ValidationError):
            MPBaseline(exclusion=0)


class TestBSPCoverSpecifics:
    def test_bloom_dedup_reduces_candidates(self, planted):
        train, _test = planted
        model = BSPCover(k=3, stride_fraction=0.25, seed=0)
        candidates = model._generate(train)  # noqa: SLF001
        # An exhaustive enumeration at stride 0.25 would be much larger
        # than the deduplicated pool.
        from repro.instanceprofile.sampling import resolve_lengths

        lengths = resolve_lengths(train.series_length, model.length_ratios)
        exhaustive = sum(
            len(range(0, train.series_length - L + 1, max(1, int(0.25 * L))))
            for L in lengths
        ) * train.n_series
        assert 0 < len(candidates) < exhaustive

    def test_p_cover_quotas(self, planted):
        train, _test = planted
        model = BSPCover(k=2, seed=0).fit_dataset(train)
        per_class: dict[int, int] = {}
        for s in model.shapelets_:
            per_class[s.label] = per_class.get(s.label, 0) + 1
        assert all(count <= 2 for count in per_class.values())

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            BSPCover(k=0)
        with pytest.raises(ValidationError):
            BSPCover(stride_fraction=0.0)


class TestFastShapeletsSpecifics:
    def test_mask_params_validated(self):
        with pytest.raises(ValidationError):
            FastShapelets(mask_size=8, sax_segments=8)

    def test_k_shapelets_per_class(self, planted):
        train, _test = planted
        model = FastShapelets(k=2, refine_top=4, seed=0).fit_dataset(train)
        per_class: dict[int, int] = {}
        for s in model.shapelets_:
            per_class[s.label] = per_class.get(s.label, 0) + 1
        assert all(count <= 2 for count in per_class.values())
        assert set(per_class) == {0, 1}


class TestLearningShapeletsSpecifics:
    def test_learns_planted_patterns(self, planted):
        train, test = planted
        model = LearningShapelets(
            k_per_class=3, epochs=250, lr=0.2, seed=0
        ).fit_dataset(train)
        accuracy = model.score(test.X, test.classes_[test.y])
        assert accuracy > 0.6

    def test_shapelets_exposed(self, planted):
        train, _test = planted
        model = LearningShapelets(k_per_class=2, epochs=20, seed=0).fit_dataset(train)
        assert len(model.shapelets_) == 4  # 2 per class x 2 classes

    def test_unfitted_rejected(self, rng):
        with pytest.raises(NotFittedError):
            LearningShapelets().predict(rng.normal(size=(2, 50)))

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            LearningShapelets(k_per_class=0)
        with pytest.raises(ValidationError):
            LearningShapelets(length_ratio=0.0)
        with pytest.raises(ValidationError):
            LearningShapelets(alpha=-1.0)


class TestSTSpecifics:
    def test_candidate_cap_recorded(self, planted):
        train, _test = planted
        model = ShapeletTransformST(k=2, max_candidates=60, seed=0).fit_dataset(train)
        assert model.n_candidates_searched_ == 60

    def test_duplicate_rejection(self, planted):
        train, _test = planted
        model = ShapeletTransformST(k=5, max_candidates=150, seed=0).fit_dataset(train)
        # No two selected shapelets of equal length may be near-identical.
        from repro.kernels import subsequence_distance

        shapelets = model.shapelets_
        for i in range(len(shapelets)):
            for j in range(i + 1, len(shapelets)):
                if shapelets[i].length == shapelets[j].length:
                    d = subsequence_distance(shapelets[i].values, shapelets[j].values)
                    assert d >= model.similarity_reject
