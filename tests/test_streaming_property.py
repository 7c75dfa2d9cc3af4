"""Hypothesis property tests pinning the streaming subsystem's anchors.

Two properties hold the whole design together:

1. **Bit-identity** — a series fed to :class:`repro.streaming.
   StreamingTransform` in chunks of *any* sizes (including one sample at
   a time) yields exactly the bits of the batch
   :func:`repro.kernels.direct_min_distance` row. Not approximately: the
   streaming path reuses the batch kernels on identical slices, so
   ``np.array_equal`` must hold.
2. **Early = final** — at the calibrated operating point
   (margin threshold 2.5, min fraction 0.7 of the series), every early
   emission carries the same label the batch classifier assigns to the
   full series.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.replay import iter_chunks
from repro.kernels import SeriesCache, direct_min_distance
from repro.streaming import EarlyClassifier, StreamingTransform
from repro.types import Shapelet

#: Calibrated operating point: on the planted split below, about 80% of
#: streams emit early and none disagrees with the batch label.
MARGIN_THRESHOLD = 2.5
MIN_FRACTION = 0.7


def _random_problem(seed: int, n_shapelets: int, length: int):
    rng = np.random.default_rng(seed)
    shapelets = [
        Shapelet(values=rng.normal(size=int(rng.integers(3, 20))), label=0)
        for _ in range(n_shapelets)
    ]
    series = rng.normal(size=length)
    return shapelets, series


def _direct_row(shapelets, series):
    queries = [s.values for s in shapelets]
    return direct_min_distance(queries, series[None], cache=SeriesCache())[0]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_shapelets=st.integers(1, 5),
    length=st.integers(40, 200),
    chunk_size=st.integers(1, 50),
)
def test_fixed_chunking_bit_identical_to_batch(
    seed, n_shapelets, length, chunk_size
):
    shapelets, series = _random_problem(seed, n_shapelets, length)
    stream = StreamingTransform(shapelets)
    for chunk in iter_chunks(series, chunk_size):
        stream.append(chunk)
    assert np.array_equal(stream.features, _direct_row(shapelets, series))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    jitter_seed=st.integers(0, 10_000),
    max_chunk=st.integers(1, 40),
)
def test_ragged_chunking_bit_identical_to_batch(seed, jitter_seed, max_chunk):
    shapelets, series = _random_problem(seed, n_shapelets=3, length=150)
    stream = StreamingTransform(shapelets)
    for chunk in iter_chunks(series, max_chunk, jitter_seed=jitter_seed):
        stream.append(chunk)
    assert np.array_equal(stream.features, _direct_row(shapelets, series))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    split=st.floats(0.1, 0.9),
)
def test_chunking_is_associative(seed, split):
    """One big append equals any two-way split of the same samples."""
    shapelets, series = _random_problem(seed, n_shapelets=2, length=120)
    one = StreamingTransform(shapelets)
    one.append(series)
    two = StreamingTransform(shapelets)
    cut = max(1, min(series.size - 1, int(split * series.size)))
    two.append(series[:cut])
    two.append(series[cut:])
    assert np.array_equal(one.features, two.features)


@pytest.fixture(scope="module")
def calibrated_problem():
    from repro.core.config import IPSConfig
    from repro.core.pipeline import IPSClassifier
    from repro.datasets.generators import make_planted_dataset

    train = make_planted_dataset(2, 16, 120, seed=1, name="calibrated")
    test = make_planted_dataset(2, 30, 120, seed=101, name="calibrated")
    classifier = IPSClassifier(
        IPSConfig(k=3, q_n=6, q_s=3, seed=1)
    ).fit_dataset(train)
    batch_labels = classifier.predict(test.X)
    return classifier, test, batch_labels


@settings(max_examples=20, deadline=None)
@given(
    row=st.integers(0, 29),
    chunk_size=st.integers(1, 64),
)
def test_early_label_equals_batch_label(calibrated_problem, row, chunk_size):
    classifier, test, batch_labels = calibrated_problem
    series = test.X[row]
    early = EarlyClassifier.from_classifier(
        classifier,
        margin_threshold=MARGIN_THRESHOLD,
        min_samples=math.ceil(MIN_FRACTION * series.size),
    )
    for chunk in iter_chunks(series, chunk_size):
        decision = early.append(chunk)
        if decision.final:
            break
    if not decision.final:
        decision = early.finalize()
    assert decision.label == int(batch_labels[row])


def test_some_streams_emit_early(calibrated_problem):
    """The calibrated threshold must actually buy earliness (gate > 0)."""
    classifier, test, batch_labels = calibrated_problem
    n_early = 0
    for row in range(test.n_series):
        series = test.X[row]
        early = EarlyClassifier.from_classifier(
            classifier,
            margin_threshold=MARGIN_THRESHOLD,
            min_samples=math.ceil(MIN_FRACTION * series.size),
        )
        for chunk in iter_chunks(series, 16):
            decision = early.append(chunk)
            if decision.final:
                break
        if decision.final and decision.early:
            n_early += 1
            assert decision.t_emitted < series.size
            assert decision.label == int(batch_labels[row])
    assert n_early > 0
