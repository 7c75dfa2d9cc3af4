"""Registry-driven conformance tests for the Estimator protocol.

Every entry of :func:`repro.estimators.estimator_registry` is held to the
behavioural contract stated in :mod:`repro.types`: predicting (or
transforming) before ``fit`` raises ``NotFittedError``, ``fit`` returns
``self``, ``predict`` emits one integer label per row drawn from the
training labels, and ``get_params`` reflects the constructor arguments
faithfully enough to rebuild the estimator. A completeness test scans the
package namespaces so new public estimators cannot dodge the registry.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

from repro.datasets.generators import make_planted_dataset
from repro.estimators import EstimatorSpec, estimator_registry, registry_names
from repro.exceptions import NotFittedError
from repro.types import Estimator, Shapelet, Transformer

SPECS = estimator_registry()

#: One tiny problem per fit style, built once for the whole module.
_SERIES = make_planted_dataset(
    n_classes=2, n_instances=12, length=40, seed=3, name="conformance"
)
_RNG = np.random.default_rng(5)
_X_FEAT = np.vstack(
    [_RNG.normal(size=(6, 5)), _RNG.normal(loc=2.0, size=(6, 5))]
)
_Y_FEAT = np.array([0] * 6 + [1] * 6, dtype=np.int64)
_SHAPELETS = [
    Shapelet(values=_SERIES.X[0, 4:12].copy(), label=0),
    Shapelet(values=_SERIES.X[1, 10:20].copy(), label=1),
]

#: Fitted instances, one per registry entry (fitting IPS and the
#: baselines repeatedly would dominate the suite's runtime).
_FITTED_CACHE: dict[str, object] = {}


def _fit_args(spec: EstimatorSpec):
    """(args for fit, X for predict/transform) per fit style."""
    if spec.fit_style == "features":
        return (_X_FEAT, _Y_FEAT), _X_FEAT
    if spec.fit_style == "binary_pm1":
        return (_X_FEAT, 2 * _Y_FEAT - 1), _X_FEAT
    if spec.fit_style == "series":
        return (_SERIES.X, _SERIES.y), _SERIES.X
    if spec.fit_style == "unsupervised":
        return (_X_FEAT,), _X_FEAT
    if spec.fit_style == "transform":
        return (_X_FEAT,), _X_FEAT
    return (_SHAPELETS,), _SERIES.X  # "shapelets"


def _fitted(spec: EstimatorSpec):
    if spec.name not in _FITTED_CACHE:
        model = spec.make()
        fit_args, _ = _fit_args(spec)
        returned = model.fit(*fit_args)
        assert returned is model, f"{spec.name}.fit must return self"
        _FITTED_CACHE[spec.name] = model
    return _FITTED_CACHE[spec.name]


@pytest.mark.parametrize("spec", SPECS, ids=registry_names())
class TestConformance:
    def test_protocol_membership(self, spec):
        model = spec.make()
        if spec.fit_style in ("features", "binary_pm1", "series"):
            assert isinstance(model, Estimator), (
                f"{spec.name} must provide fit/predict/score/get_params"
            )
        elif spec.fit_style in ("transform", "shapelets"):
            assert isinstance(model, Transformer), (
                f"{spec.name} must provide transform/get_params"
            )
        else:  # unsupervised: predict without score
            assert hasattr(model, "fit") and hasattr(model, "predict")
            assert callable(model.get_params)

    def test_unfitted_raises(self, spec):
        model = spec.make()
        _, X = _fit_args(spec)
        probe = (
            model.transform
            if spec.fit_style in ("transform", "shapelets")
            else model.predict
        )
        with pytest.raises(NotFittedError):
            probe(X)

    def test_fit_returns_self_and_output_contract(self, spec):
        model = _fitted(spec)
        fit_args, X = _fit_args(spec)
        if spec.fit_style in ("transform", "shapelets"):
            out = model.transform(X)
            assert out.ndim == 2 and out.shape[0] == X.shape[0]
            assert np.issubdtype(out.dtype, np.floating)
            assert np.isfinite(out).all()
            return
        pred = model.predict(X)
        assert pred.shape == (X.shape[0],)
        assert np.issubdtype(pred.dtype, np.integer)
        if spec.fit_style == "unsupervised":
            assert np.all((0 <= pred) & (pred < model.n_clusters))
        else:
            y_train = fit_args[1]
            assert np.all(np.isin(pred, np.unique(y_train)))

    def test_score_is_a_fraction(self, spec):
        if spec.fit_style in ("transform", "shapelets", "unsupervised"):
            pytest.skip("no score in the transformer/clustering contract")
        model = _fitted(spec)
        fit_args, X = _fit_args(spec)
        score = model.score(X, fit_args[1])
        assert 0.0 <= score <= 1.0

    def test_get_params_rebuilds(self, spec):
        model = spec.make()
        params = model.get_params()
        assert isinstance(params, dict)
        signature = inspect.signature(type(model).__init__)
        expected = {
            name
            for name, p in signature.parameters.items()
            if name != "self"
            and p.kind
            not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        }
        assert set(params) == expected
        rebuilt = type(model)(**params)
        assert type(rebuilt) is type(model)
        assert rebuilt.get_params().keys() == params.keys()


def _predictor_specs():
    """Registry entries whose fitted model exposes the Predictor surface."""
    selected = []
    for spec in SPECS:
        if spec.fit_style not in ("features", "binary_pm1", "series"):
            continue
        model = spec.make()
        if all(
            callable(getattr(model, name, None))
            for name in ("predict", "predict_proba", "decision_function")
        ):
            selected.append(spec)
    return selected


_PREDICTOR_SPECS = _predictor_specs()


@pytest.mark.parametrize(
    "spec", _PREDICTOR_SPECS, ids=[s.name for s in _PREDICTOR_SPECS]
)
class TestPredictorConformance:
    """The repro.types.Predictor contract: shapes, dtypes, consistency."""

    def test_protocol_membership(self, spec):
        from repro.types import Predictor

        assert isinstance(_fitted(spec), Predictor)

    def test_classes_sorted_int64(self, spec):
        model = _fitted(spec)
        classes = np.asarray(model.classes_)
        assert classes.ndim == 1 and classes.size >= 1
        assert np.issubdtype(classes.dtype, np.integer)
        assert np.all(np.diff(classes) > 0), "classes_ must be sorted unique"

    def test_proba_rows_are_distributions(self, spec):
        model = _fitted(spec)
        _, X = _fit_args(spec)
        proba = model.predict_proba(X)
        classes = np.asarray(model.classes_)
        assert proba.shape == (X.shape[0], classes.size)
        assert proba.dtype == np.float64
        assert np.all(proba >= 0.0)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_decision_function_always_2d(self, spec):
        """Binary models included: no flat (M,) shape in the contract."""
        model = _fitted(spec)
        _, X = _fit_args(spec)
        scores = model.decision_function(X)
        classes = np.asarray(model.classes_)
        assert scores.shape == (X.shape[0], classes.size)
        assert np.issubdtype(scores.dtype, np.floating)
        assert np.isfinite(scores).all()

    def test_argmax_consistency(self, spec):
        """Column c scores class classes_[c]: argmax recovers predict."""
        model = _fitted(spec)
        _, X = _fit_args(spec)
        classes = np.asarray(model.classes_)
        scores = model.decision_function(X)
        np.testing.assert_array_equal(
            classes[np.argmax(scores, axis=1)], model.predict(X)
        )

    def test_decision_margin_shape(self, spec):
        from repro.types import decision_margin

        model = _fitted(spec)
        _, X = _fit_args(spec)
        margins = decision_margin(model.decision_function(X))
        assert margins.shape == (X.shape[0],)
        assert np.all(margins >= 0.0)


#: (spec, method) for every output a feature-matrix predictor has.
_ROW_OUTPUTS = [
    (spec, method)
    for spec in SPECS
    if spec.fit_style in ("features", "binary_pm1")
    for method in ("decision_function", "predict_proba", "predict")
    if callable(getattr(spec.make(), method, None))
]
#: A batch past every small-size special case of the BLAS kernels.
_BATCH = np.random.default_rng(9).normal(loc=1.0, scale=1.5, size=(300, 5))


@pytest.mark.parametrize(
    ("spec", "method"),
    _ROW_OUTPUTS,
    ids=[f"{spec.name}-{method}" for spec, method in _ROW_OUTPUTS],
)
def test_row_alone_scores_its_batch_bits(spec, method):
    """A feature row gets the same output alone as inside a 300-row batch."""
    model = _fitted(spec)
    call = getattr(model, method)
    batch = call(_BATCH)
    differing = [
        row
        for row in range(_BATCH.shape[0])
        if not np.array_equal(call(_BATCH[row : row + 1])[0], batch[row])
    ]
    assert differing == []


def test_package_exports_importable():
    """Every name in repro.__all__ must resolve (the curated facade)."""
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, (
            f"repro.__all__ exports {name!r} but it does not resolve"
        )
    assert len(set(repro.__all__)) == len(repro.__all__), (
        "repro.__all__ has duplicates"
    )


def test_streaming_package_exports_importable():
    import repro.streaming as streaming

    for name in streaming.__all__:
        assert getattr(streaming, name, None) is not None, name


def _public_estimator_classes():
    """Every public class with fit+predict under repro.classify/baselines."""
    import repro.baselines
    import repro.classify

    found = {}
    for package in (repro.classify, repro.baselines):
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            for name, obj in vars(module).items():
                if (
                    inspect.isclass(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                    and not inspect.isabstract(obj)
                    and callable(getattr(obj, "fit", None))
                    and callable(getattr(obj, "predict", None))
                ):
                    found[name] = obj
    return found


def test_registry_is_complete():
    """No public fit+predict class may be missing from the registry."""
    registered = set(registry_names())
    missing = set(_public_estimator_classes()) - registered
    assert not missing, (
        f"public estimators missing from repro.estimators registry: "
        f"{sorted(missing)}"
    )


def test_ips_classifier_registered():
    assert "IPSClassifier" in registry_names()
