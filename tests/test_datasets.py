"""Tests for repro.datasets: generators, special sets, registry, loader."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.generators import PATTERN_LIBRARY, make_planted_dataset
from repro.datasets.loader import load_dataset
from repro.datasets.registry import REGISTRY, TABLE_DATASETS, get_profile
from repro.datasets.special import (
    make_cbf,
    make_ecg,
    make_gun_point,
    make_italy_power,
    make_synthetic_control,
    make_two_patterns,
)
from repro.exceptions import DatasetError, ValidationError


class TestPlantedGenerator:
    def test_shape_and_classes(self):
        ds = make_planted_dataset(n_classes=3, n_instances=12, length=64, seed=0)
        assert ds.X.shape == (12, 64)
        assert ds.n_classes == 3
        assert np.bincount(ds.y).min() == 4

    def test_deterministic(self):
        a = make_planted_dataset(n_classes=2, n_instances=8, length=50, seed=9)
        b = make_planted_dataset(n_classes=2, n_instances=8, length=50, seed=9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = make_planted_dataset(n_classes=2, n_instances=8, length=50, seed=1)
        b = make_planted_dataset(n_classes=2, n_instances=8, length=50, seed=2)
        assert not np.array_equal(a.X, b.X)

    def test_planted_patterns_create_cross_instance_similarity(self):
        """Within a class, instances share a close subsequence (the plant);
        across classes they do not — the property shapelet methods need."""
        from repro.kernels import subsequence_distance

        ds = make_planted_dataset(n_classes=2, n_instances=20, length=80, seed=4)
        zero = ds.series_of_class(0)
        one = ds.series_of_class(1)
        within = np.mean(
            [subsequence_distance(zero[i, 20:60], zero[j]) for i in range(4) for j in range(4, 8)]
        )
        across = np.mean(
            [subsequence_distance(zero[i, 20:60], one[j]) for i in range(4) for j in range(4)]
        )
        # Not every window contains the pattern, so compare full-instance
        # best-window distances aggregated over several pairs.
        assert within < across * 1.5

    def test_pattern_library_distinct_shapes(self):
        shapes = [fn(32) for fn in PATTERN_LIBRARY]
        for i in range(len(shapes)):
            for j in range(i + 1, len(shapes)):
                assert not np.allclose(shapes[i], shapes[j])

    def test_many_classes_cycle_library(self):
        ds = make_planted_dataset(n_classes=12, n_instances=24, length=64, seed=0)
        assert ds.n_classes == 12

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            make_planted_dataset(n_classes=0, n_instances=5, length=64)
        with pytest.raises(ValidationError):
            make_planted_dataset(n_classes=5, n_instances=3, length=64)
        with pytest.raises(ValidationError):
            make_planted_dataset(n_classes=2, n_instances=5, length=8)


class TestSpecialGenerators:
    def test_cbf_three_classes(self):
        ds = make_cbf(30, length=128, seed=0)
        assert ds.n_classes == 3
        assert ds.X.shape == (30, 128)

    def test_cbf_bell_rises_funnel_falls(self):
        ds = make_cbf(60, length=128, seed=1)
        for label, slope_sign in ((1, 1.0), (2, -1.0)):
            rows = ds.series_of_class(label)
            # Average the support region trend across instances.
            mid = rows[:, 30:100]
            slopes = [np.polyfit(np.arange(mid.shape[1]), r, 1)[0] for r in mid]
            assert np.sign(np.median(slopes)) == slope_sign

    def test_two_patterns_four_classes(self):
        ds = make_two_patterns(40, seed=0)
        assert ds.n_classes == 4

    def test_synthetic_control_six_regimes(self):
        ds = make_synthetic_control(36, seed=0)
        assert ds.n_classes == 6
        # Increasing trend class has positive slope, decreasing negative.
        up = ds.series_of_class(2)
        down = ds.series_of_class(3)
        assert np.polyfit(np.arange(60), up.mean(axis=0), 1)[0] > 0.1
        assert np.polyfit(np.arange(60), down.mean(axis=0), 1)[0] < -0.1

    def test_italy_power_winter_has_morning_bump(self):
        ds = make_italy_power(60, length=24, seed=0)
        summer = ds.series_of_class(0).mean(axis=0)
        winter = ds.series_of_class(1).mean(axis=0)
        morning = slice(7, 11)
        assert winter[morning].mean() > summer[morning].mean() + 0.2

    def test_ecg_classes_differ_in_qrs(self):
        ds = make_ecg(40, length=96, n_classes=2, seed=0)
        normal = ds.series_of_class(0).mean(axis=0)
        wide = ds.series_of_class(1).mean(axis=0)
        # The wide-QRS class has more energy around the R peak flanks.
        flank = slice(30, 36)
        assert wide[flank].mean() > normal[flank].mean()

    def test_ecg_class_count_bounds(self):
        with pytest.raises(ValidationError):
            make_ecg(10, n_classes=6)

    def test_gun_point_dip_distinguishes(self):
        ds = make_gun_point(40, length=150, seed=0)
        gun = ds.series_of_class(0).mean(axis=0)
        point = ds.series_of_class(1).mean(axis=0)
        early = slice(15, 25)
        assert gun[early].mean() < point[early].mean()


class TestRegistry:
    def test_47_datasets(self):
        assert len(REGISTRY) == 47  # 46 of Tables IV/VI + MoteStrain

    def test_table_datasets_excludes_motestrain(self):
        assert len(TABLE_DATASETS) == 46
        assert "MoteStrain" not in TABLE_DATASETS

    def test_true_ucr_metadata_spot_checks(self):
        arrow = get_profile("ArrowHead")
        assert (arrow.n_classes, arrow.n_train, arrow.n_test, arrow.length) == (
            3, 36, 175, 251,
        )
        italy = get_profile("ItalyPowerDemand")
        assert (italy.n_classes, italy.length) == (2, 24)
        nif = get_profile("NonInvasiveFatalECGThorax1")
        assert nif.n_classes == 42

    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError):
            get_profile("NotADataset")

    def test_categories_cover_paper_types(self):
        categories = {p.category for p in REGISTRY.values()}
        assert {"Image", "Sensor", "Simulated", "Motion"} <= categories


class TestLoader:
    def test_default_sizes_match_profile(self):
        data = load_dataset("ItalyPowerDemand", seed=0)
        profile = get_profile("ItalyPowerDemand")
        total = data.train.n_series + data.test.n_series
        assert total == profile.n_train + profile.n_test
        assert data.train.series_length == profile.length

    def test_caps_applied(self):
        data = load_dataset("ArrowHead", seed=0, max_train=12, max_test=20, max_length=60)
        assert data.train.n_series <= 14  # 12 requested, may round up slightly
        assert data.train.series_length == 60
        assert data.train.n_classes == 3  # classes never reduced

    def test_min_two_per_class_in_train(self):
        data = load_dataset("Beef", seed=0, max_train=2, max_test=5, max_length=50)
        counts = np.bincount(data.train.y, minlength=data.train.n_classes)
        assert counts.min() >= 1
        assert data.train.n_series >= 2 * 5  # clamped to 2 per class

    def test_deterministic_and_cached(self):
        a = load_dataset("GunPoint", seed=3, max_train=10, max_test=10)
        b = load_dataset("GunPoint", seed=3, max_train=10, max_test=10)
        assert a is b  # cache hit
        assert np.array_equal(a.train.X, b.train.X)

    def test_different_seed_different_data(self):
        a = load_dataset("GunPoint", seed=1, max_train=10, max_test=10)
        b = load_dataset("GunPoint", seed=2, max_train=10, max_test=10)
        assert not np.array_equal(a.train.X, b.train.X)

    def test_train_test_prototypes_shared(self):
        """Test instances must be classifiable from train (same generator pool)."""
        from repro.classify.neighbors import OneNearestNeighbor

        data = load_dataset("ShapeletSim", seed=0, max_train=20, max_test=40, max_length=150)
        model = OneNearestNeighbor("euclidean").fit(data.train.X, data.train.y)
        internal_test_y = data.test.y
        # Labels must align across the two Dataset objects (same classes_).
        assert np.array_equal(data.train.classes_, data.test.classes_)
        assert model.score(data.test.X, internal_test_y) > 0.5

    def test_every_registered_dataset_loads_small(self):
        for name in list(REGISTRY)[:10]:
            data = load_dataset(name, seed=0, max_train=8, max_test=8, max_length=40)
            assert data.train.n_series > 0
            assert data.test.n_series > 0
