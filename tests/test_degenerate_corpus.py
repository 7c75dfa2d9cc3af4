"""Degenerate-input corpus: every method must survive hostile datasets.

Each corpus entry is a dataset a production user will eventually feed in:
constant series, a class with a single example, an all-identical dataset,
series too short for the shapelet-length grid, and NaN/inf gaps. The
contract: after the repair policies run, IPS and the baselines fit,
predict, and score without raising and without RuntimeWarnings (promoted
to errors by pyproject).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fast_shapelets import FastShapelets
from repro.baselines.mp_base import MPBaseline
from repro.core.config import IPSConfig
from repro.core.pipeline import IPSClassifier
from repro.datasets.generators import make_planted_dataset
from repro.validation import validate_dataset

pytestmark = pytest.mark.robustness


@pytest.fixture(scope="module")
def planted():
    return make_planted_dataset(n_classes=2, n_instances=10, length=40, seed=1)


def _corpus(planted):
    X, y = planted.X, planted.classes_[planted.y]
    constant = X.copy()
    constant[0] = 5.0
    constant[7] = -1.0
    single = np.vstack([X, np.sin(np.arange(40.0))[None, :]])
    single_y = np.concatenate([y, [9]])
    identical = np.tile(np.sin(np.arange(40.0)), (8, 1))
    identical_y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    short = np.random.default_rng(0).normal(size=(8, 2))
    gaps = X.copy()
    gaps[1, 5:9] = np.nan
    gaps[4, 0] = np.inf
    return {
        "constant-series": (constant, y),
        "single-instance-class": (single, single_y),
        "all-identical": (identical, identical_y),
        "too-short": (short, identical_y),
        "nan-gaps": (gaps, y),
    }


CASES = [
    "constant-series",
    "single-instance-class",
    "all-identical",
    "too-short",
    "nan-gaps",
]

METHODS = ["IPS", "MP", "FS"]


def _build(method):
    if method == "IPS":
        return IPSClassifier(IPSConfig(q_n=3, q_s=2, k=2, seed=0))
    if method == "MP":
        return MPBaseline(seed=0, k=2)
    return FastShapelets(seed=0, k=2, n_masking_rounds=3)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", CASES)
def test_repaired_corpus_fits_and_scores(planted, case, method):
    X, y = _corpus(planted)[case]
    validated = validate_dataset(X, y, mode="repair", min_class_size=1)
    ds = validated.dataset
    model = _build(method)
    if method == "IPS":
        model.fit_dataset(ds)
    else:
        model.fit(ds.X, ds.classes_[ds.y])
    labels = ds.classes_[ds.y]
    accuracy = model.score(ds.X, labels)
    assert 0.0 <= accuracy <= 1.0
    assert model.predict(ds.X).shape == (ds.n_series,)


@pytest.mark.parametrize("case", CASES)
def test_corpus_repair_matches_report(planted, case):
    """Acceptance: the repaired matrix is exactly what the report records."""
    X, y = _corpus(planted)[case]
    validated = validate_dataset(X, y, mode="repair", min_class_size=1)
    report = validated.report
    # Every ERROR finding carries a matching repair record.
    assert report.ok
    # Repairs replayed on the raw input reproduce the output bit-for-bit.
    again = validate_dataset(X, y, mode="repair", min_class_size=1)
    assert np.array_equal(validated.dataset.X, again.dataset.X)
    assert [str(r) for r in report.repairs] == [
        str(r) for r in again.report.repairs
    ]
    assert np.isfinite(validated.dataset.X).all()


def test_nan_gap_report_names_rows(planted):
    X, y = _corpus(planted)["nan-gaps"]
    report = validate_dataset(X, y, mode="repair").report
    finding = next(f for f in report.findings if f.code == "non-finite")
    assert set(finding.rows) == {1, 4}


class TestDegenerateKernels:
    def test_dtw_on_length_one_series(self):
        from repro.ts.dtw import dtw_distance

        assert dtw_distance(np.array([2.0]), np.array([5.0])) == pytest.approx(3.0)
        assert dtw_distance(np.array([2.0]), np.array([2.0])) == 0.0

    def test_dtw_length_one_against_longer(self):
        from repro.ts.dtw import dtw_distance

        d = dtw_distance(np.array([1.0]), np.array([1.0, 1.0, 1.0]))
        assert np.isfinite(d)

    def test_mass_flat_query_flat_series(self):
        from repro.kernels import mass

        profile = mass(np.full(5, 2.0), np.full(20, 7.0))
        assert np.allclose(profile, 0.0)  # flat vs flat: distance 0

    def test_scaler_non_finite_columns_zeroed(self):
        from repro.classify.scaler import StandardScaler

        X = np.array([[1.0, np.nan, 5.0], [2.0, np.nan, np.inf], [3.0, np.nan, 7.0]])
        out = StandardScaler().fit_transform(X)
        assert np.isfinite(out).all()
        assert np.allclose(out[:, 1], 0.0)  # no finite entries -> zeros

    def test_pca_rank_deficient(self):
        from repro.classify.pca import PCA

        X = np.outer(np.arange(6.0), np.ones(4))  # rank 1
        pca = PCA().fit(X)
        assert np.isfinite(pca.components_).all()
        assert np.isfinite(pca.transform(X)).all()

    def test_pca_rejects_non_finite(self):
        from repro.classify.pca import PCA
        from repro.exceptions import ValidationError

        X = np.ones((4, 3))
        X[0, 0] = np.nan
        with pytest.raises(ValidationError):
            PCA().fit(X)

    def test_svm_rejects_non_finite(self):
        from repro.classify.svm import OneVsRestSVM
        from repro.exceptions import ValidationError

        X = np.ones((4, 3))
        X[1, 2] = np.inf
        with pytest.raises(ValidationError):
            OneVsRestSVM().fit(X, np.array([0, 0, 1, 1]))

    def test_logistic_survives_extreme_scales(self):
        from repro.classify.logistic import LogisticRegression

        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3)) * 1e150  # guaranteed overflow territory
        y = np.array([0] * 10 + [1] * 10)
        model = LogisticRegression(lr=10.0, max_epochs=50).fit(X, y)
        assert np.isfinite(model.coef_).all()
        assert np.isfinite(model.intercept_).all()
        assert model.predict(X).shape == (20,)


def test_ips_fit_routes_raw_corpus(planted):
    """IPSClassifier.fit on raw NaN data repairs internally (repair mode)."""
    X, y = _corpus(planted)["nan-gaps"]
    clf = IPSClassifier(IPSConfig(q_n=3, q_s=2, k=2, seed=0))
    clf.fit(X, y)
    report = clf.discovery_result_.extra["validation_report"]
    assert any(f.code == "non-finite" for f in report.findings)
    assert clf.predict(X[:3]).shape == (3,)
