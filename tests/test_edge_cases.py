"""Edge-case and failure-injection tests across module boundaries.

Each test targets a boundary condition a production user will eventually
hit: NaN inputs, single-instance classes, extreme window sizes, degenerate
candidate pools, constant series.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import IPSConfig
from repro.core.pipeline import IPS, IPSClassifier
from repro.datasets.generators import make_planted_dataset
from repro.exceptions import LengthError, ValidationError
from repro.filters.dabf import DABF
from repro.instanceprofile.candidates import CandidatePool, generate_candidates
from repro.kernels import distance_profile
from repro.matrixprofile.stomp import stomp_self_join
from repro.ts.concat import concatenate_series
from repro.ts.series import Dataset
from repro.types import Candidate, CandidateKind


class TestNaNInjection:
    def test_dataset_rejects_nan(self):
        X = np.zeros((2, 10))
        X[0, 3] = np.nan
        with pytest.raises(ValidationError):
            Dataset(X=X, y=[0, 1])

    def test_dataset_rejects_inf(self):
        X = np.zeros((2, 10))
        X[1, 0] = np.inf
        with pytest.raises(ValidationError):
            Dataset(X=X, y=[0, 1])


class TestConstantSeries:
    def test_profile_of_constant_series(self):
        """All-flat series: z-normalized windows are all zero vectors."""
        mp = stomp_self_join(np.full(60, 5.0), 10)
        finite = mp.values[np.isfinite(mp.values)]
        assert np.allclose(finite, 0.0)

    def test_pipeline_survives_one_constant_instance(self):
        ds = make_planted_dataset(n_classes=2, n_instances=12, length=60, seed=0)
        X = ds.X.copy()
        X[0] = 3.0  # one flat instance
        flat = Dataset(X=X, y=ds.classes_[ds.y])
        result = IPS(
            IPSConfig(q_n=4, q_s=3, k=2, length_ratios=(0.2,), seed=0)
        ).discover(flat)
        assert result.shapelets

    def test_constant_dataset_classification_degenerates_gracefully(self):
        X = np.ones((8, 40))
        ds = Dataset(X=X, y=[0, 0, 0, 0, 1, 1, 1, 1])
        clf = IPSClassifier(IPSConfig(q_n=3, q_s=2, k=1, length_ratios=(0.25,), seed=0))
        clf.fit_dataset(ds)  # must not crash
        predictions = clf.predict(X)
        assert predictions.shape == (8,)


class TestSmallClasses:
    def test_single_instance_per_class(self):
        rng = np.random.default_rng(0)
        ds = Dataset(X=rng.normal(size=(2, 50)), y=[0, 1])
        result = IPS(
            IPSConfig(q_n=3, q_s=2, k=1, length_ratios=(0.2,), seed=0)
        ).discover(ds)
        assert {s.label for s in result.shapelets} == {0, 1}

    def test_imbalanced_classes(self):
        full = make_planted_dataset(n_classes=2, n_instances=20, length=60, seed=2)
        rows = np.concatenate(
            [full.class_indices(0)[:9], full.class_indices(1)[:2]]
        )
        imbalanced = full.subset(rows)
        clf = IPSClassifier(IPSConfig(q_n=4, q_s=3, k=2, length_ratios=(0.2,), seed=0))
        clf.fit_dataset(imbalanced)
        assert len(clf.shapelets_) >= 2


class TestExtremeWindows:
    def test_window_equals_series_length(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=30)
        mp = stomp_self_join(t, 30)
        # Single window, excluded against itself: no finite value.
        assert not np.any(np.isfinite(mp.values))

    def test_window_one(self):
        rng = np.random.default_rng(0)
        profile = distance_profile(np.array([0.5]), rng.normal(size=20))
        assert profile.shape == (20,)

    def test_concat_window_larger_than_instance(self):
        cs = concatenate_series([np.ones(5), np.ones(5)])
        mask = cs.valid_window_mask(6)
        assert not mask.any()

    def test_locate_rejects_oversized_window(self):
        cs = concatenate_series([np.ones(5)])
        with pytest.raises(LengthError):
            cs.locate(0, 6)


class TestDegeneratePools:
    def test_dabf_single_candidate_per_class(self, rng):
        pool = CandidatePool()
        for label in (0, 1):
            pool.add(
                Candidate(
                    values=rng.normal(size=10) + label * 50,
                    label=label,
                    kind=CandidateKind.MOTIF,
                )
            )
        dabf = DABF.build(pool, seed=0)
        pruned, report = dabf.prune(pool)
        # Degenerate sigma: only exact matches count as close; far classes
        # keep their candidates.
        assert report.n_removed == 0

    def test_k_exceeds_pool_size(self):
        ds = make_planted_dataset(n_classes=2, n_instances=8, length=50, seed=3)
        config = IPSConfig(q_n=2, q_s=2, k=50, length_ratios=(0.2,), seed=0)
        result = IPS(config).discover(ds)
        # Fewer shapelets than k, but at least one per class.
        assert {s.label for s in result.shapelets} == {0, 1}
        assert len(result.shapelets) <= 2 * 50

    def test_generate_candidates_q_s_one_uses_pairs(self):
        """Q_S=1 is bumped to 2 so the cross-instance IP is defined."""
        ds = make_planted_dataset(n_classes=2, n_instances=8, length=50, seed=4)
        pool = generate_candidates(ds, q_n=2, q_s=1, lengths=[10], seed=0)
        assert len(pool) > 0


class TestLabelHandling:
    def test_negative_labels(self):
        full = make_planted_dataset(n_classes=2, n_instances=16, length=50, seed=5)
        y = np.where(full.y == 0, -5, 5)
        clf = IPSClassifier(IPSConfig(q_n=4, q_s=3, k=2, length_ratios=(0.2,), seed=0))
        clf.fit(full.X, y)
        assert set(np.unique(clf.predict(full.X))).issubset({-5, 5})

    def test_noncontiguous_labels(self):
        full = make_planted_dataset(n_classes=3, n_instances=18, length=50, seed=6)
        y = np.array([100, 205, 310])[full.y]
        clf = IPSClassifier(IPSConfig(q_n=4, q_s=3, k=1, length_ratios=(0.2,), seed=0))
        clf.fit(full.X, y)
        assert set(np.unique(clf.predict(full.X))).issubset({100, 205, 310})
