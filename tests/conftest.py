"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.datasets.generators import make_planted_dataset
from repro.ts.series import Dataset


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Per-test wall-clock guard for ``@pytest.mark.timeout_guard(seconds)``.

    Pure stdlib: arms a SIGALRM interval timer around the test body so a
    test that genuinely hangs (the fault-injection suite provokes hangs
    on purpose) fails with a TimeoutError instead of wedging the run. On
    platforms without SIGALRM the marker is a no-op.
    """
    marker = item.get_closest_marker("timeout_guard")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 30.0

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s timeout_guard budget"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def pytest_collection_modifyitems(items):
    """File-prefix markers applied automatically, so ``pytest -m serve``
    / ``pytest -m campaign`` / ``pytest -m robustness`` (and their
    ``make verify-*`` targets) select whole suites without per-file
    bookkeeping."""
    for item in items:
        if item.fspath.basename.startswith("test_serve"):
            item.add_marker(pytest.mark.serve)
        if item.fspath.basename.startswith("test_campaign"):
            item.add_marker(pytest.mark.campaign)
        if item.fspath.basename.startswith(
            ("test_streaming", "test_serve_streaming")
        ):
            item.add_marker(pytest.mark.streaming)
        if item.fspath.basename.startswith(("test_obs", "test_telemetry")):
            item.add_marker(pytest.mark.obs)
        if item.fspath.basename.startswith(("test_distributed", "test_io")):
            item.add_marker(pytest.mark.robustness)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_two_class() -> Dataset:
    """A small 2-class planted dataset (shared, read-only)."""
    return make_planted_dataset(
        n_classes=2, n_instances=16, length=80, seed=7, name="tiny2"
    )


@pytest.fixture(scope="session")
def tiny_three_class() -> Dataset:
    """A small 3-class planted dataset (shared, read-only)."""
    return make_planted_dataset(
        n_classes=3, n_instances=18, length=90, seed=11, name="tiny3"
    )


@pytest.fixture()
def random_series(rng: np.random.Generator) -> np.ndarray:
    """A 200-point Gaussian series."""
    return rng.normal(size=200)


@pytest.fixture(scope="session")
def frozen_classifier(tiny_two_class):
    """A fitted classifier shared by the serving suites (read-only)."""
    from repro.core.config import IPSConfig
    from repro.core.pipeline import IPSClassifier

    return IPSClassifier(
        IPSConfig(k=3, q_n=6, q_s=3, seed=7)
    ).fit_dataset(tiny_two_class)
