"""Tests for repro.distributed: executors + distributed discovery."""

from __future__ import annotations

import dataclasses
import types

import numpy as np
import pytest

import repro.core.budget as budget_module
from repro.core.budget import Budget
from repro.core.config import IPSConfig
from repro.core.pipeline import IPS
from repro.datasets.generators import make_planted_dataset
from repro.distributed import (
    DistributedIPS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.distributed.discovery import generate_unit_candidates
from repro.exceptions import ValidationError
from repro.filters.dabf import DABF
from repro.instanceprofile import BaggingSampler, generate_candidates


def feed_unit_samples(monkeypatch, dataset, units):
    """Make ``BaggingSampler`` hand out the distributed units' samples.

    The serial and distributed generators draw their bagging samples
    with different RNG schemes by design; patched, the serial pipeline
    sees exactly the rows each work unit saw.
    """
    rows_by_class: dict[int, list[np.ndarray]] = {}
    for unit in units:
        rows_by_class.setdefault(unit.label, []).append(np.asarray(unit.rows))
    monkeypatch.setattr(
        BaggingSampler,
        "samples_for_class",
        lambda self, class_rows: rows_by_class[int(dataset.y[class_rows[0]])],
    )


@pytest.fixture(scope="module")
def planted():
    return make_planted_dataset(n_classes=2, n_instances=16, length=80, seed=7)


@pytest.fixture(scope="module")
def config():
    return IPSConfig(q_n=6, q_s=3, k=3, length_ratios=(0.15, 0.3), seed=0)


class TestWorkUnits:
    def test_one_unit_per_class_sample(self, planted, config):
        units = DistributedIPS(config).build_work_units(planted)
        assert len(units) == planted.n_classes * config.q_n
        labels = {u.label for u in units}
        assert labels == {0, 1}

    def test_units_are_self_contained(self, planted, config):
        units = DistributedIPS(config).build_work_units(planted)
        unit = units[0]
        assert unit.X_rows.shape[0] == len(unit.rows)
        for local, row in enumerate(unit.rows):
            assert np.array_equal(unit.X_rows[local], planted.X[row])

    def test_unit_seeds_distinct(self, planted, config):
        units = DistributedIPS(config).build_work_units(planted)
        seeds = [u.seed for u in units]
        assert len(set(seeds)) == len(seeds)

    def test_worker_generates_candidates(self, planted, config):
        units = DistributedIPS(config).build_work_units(planted)
        candidates = generate_unit_candidates(units[0])
        assert candidates
        for cand in candidates:
            assert cand.label == units[0].label
            assert cand.sample_id == units[0].sample_id
            row = planted.X[cand.source_instance]
            assert np.allclose(
                row[cand.start : cand.start + cand.length], cand.values
            )


class TestExecutors:
    def test_serial_preserves_order(self):
        executor = SerialExecutor()
        out = executor.map(lambda u: u, [1, 2, 3])  # type: ignore[arg-type]
        assert out == [1, 2, 3]

    def test_thread_matches_serial(self, planted, config):
        dist = DistributedIPS(config)
        units = dist.build_work_units(planted)
        serial = SerialExecutor().map(generate_unit_candidates, units)
        threaded = ThreadExecutor(max_workers=4).map(generate_unit_candidates, units)
        assert serial == threaded

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValidationError):
            ThreadExecutor(max_workers=0)
        with pytest.raises(ValidationError):
            ProcessExecutor(max_workers=0)


class TestDistributedDiscovery:
    def test_matches_across_executors(self, planted, config):
        r_serial = DistributedIPS(config, SerialExecutor()).discover(planted)
        r_thread = DistributedIPS(config, ThreadExecutor(max_workers=3)).discover(
            planted
        )
        assert r_serial.n_candidates_generated == r_thread.n_candidates_generated
        for a, b in zip(r_serial.shapelets, r_thread.shapelets):
            assert np.array_equal(a.values, b.values)

    def test_result_structure(self, planted, config):
        result = DistributedIPS(config).discover(planted)
        assert result.shapelets
        assert result.extra["n_work_units"] == planted.n_classes * config.q_n
        assert result.n_candidates_after_pruning <= result.n_candidates_generated

    def test_comparable_quality_to_serial_pipeline(self, planted, config):
        """Distributed discovery should find shapelets of similar quality
        (same algorithm, different but equally-valid random samples)."""
        dist_result = DistributedIPS(config).discover(planted)
        serial_result = IPS(config).discover(planted)
        dist_labels = {s.label for s in dist_result.shapelets}
        serial_labels = {s.label for s in serial_result.shapelets}
        assert dist_labels == serial_labels == {0, 1}

    def test_deterministic_given_seed(self, planted, config):
        a = DistributedIPS(config).discover(planted)
        b = DistributedIPS(config).discover(planted)
        for s1, s2 in zip(a.shapelets, b.shapelets):
            assert np.array_equal(s1.values, s2.values)

    def test_serial_executor_pool_equals_generate_candidates(
        self, planted, config, monkeypatch
    ):
        """Given the same bagging samples, the distributed workers (one
        batched kernel per unit) and ``generate_candidates`` (one per
        round) build the same pool. The two draw their samples with
        different RNG schemes by design, so the serial generator is fed
        the distributed units' samples."""
        dist = DistributedIPS(config, SerialExecutor())
        units = dist.build_work_units(planted)
        merged = {}
        merge = dist._merge_outcomes

        def capture(*args, **kwargs):
            merged["pool"], stats = merge(*args, **kwargs)
            return merged["pool"], stats

        monkeypatch.setattr(dist, "_merge_outcomes", capture)
        dist.discover(planted)

        feed_unit_samples(monkeypatch, planted, units)
        serial = generate_candidates(
            planted,
            q_n=config.q_n,
            q_s=config.q_s,
            lengths=list(units[0].lengths),
            motifs_per_profile=config.motifs_per_profile,
            discords_per_profile=config.discords_per_profile,
            normalized=config.normalized_profiles,
            seed=config.seed,
        )

        def signature(pool):
            return [
                (c.label, c.kind, c.source_instance, c.start, c.sample_id, c.values.tobytes())
                for c in pool
            ]

        assert len(serial) > 0
        assert signature(merged["pool"]) == signature(serial)


_CELLS = [
    pytest.param(
        dict(use_dabf=dabf, use_dt_cr=dt), None, id=f"dabf={dabf}-dt={dt}"
    )
    for dabf in (True, False)
    for dt in (True, False)
] + [
    pytest.param(
        dict(lsh_scheme="cosine", n_projections=4, bins=8),
        None,
        id="cosine-lsh",
    ),
    pytest.param({}, ProcessExecutor(max_workers=2), id="process-executor"),
]

#: Kernel tallies of ``extra["perf"]`` that must not depend on where
#: candidate generation ran.
_TALLIES = (
    "kernel_calls", "batch_calls", "fft_count", "cache_hits", "cache_misses",
    "cache_hit_rate",
)


class TestOnePipeline:
    """``DistributedIPS`` swaps only candidate generation: fed the same
    bagging samples, it prunes and selects exactly as ``IPS`` does, for
    every pruning, selection and LSH setting."""

    @pytest.fixture(scope="class", params=[3, 1], ids=["3-class", "1-class"])
    def dataset(self, request):
        return make_planted_dataset(
            n_classes=request.param, n_instances=12, length=64, seed=3
        )

    @pytest.mark.parametrize(("fields", "executor"), _CELLS)
    def test_distributed_equals_serial_on_same_samples(
        self, dataset, fields, executor, monkeypatch
    ):
        config = IPSConfig(
            q_n=4, q_s=3, k=3, length_ratios=(0.2, 0.35), seed=0, **fields
        )
        dist = DistributedIPS(config, executor)
        distributed = dist.discover(dataset)
        feed_unit_samples(monkeypatch, dataset, dist.build_work_units(dataset))
        serial = IPS(config).discover(dataset)

        assert distributed.n_candidates_generated == serial.n_candidates_generated
        assert (
            distributed.n_candidates_after_pruning
            == serial.n_candidates_after_pruning
        )
        assert (
            distributed.extra["prune_report"].n_removed
            == serial.extra["prune_report"].n_removed
        )
        assert len(distributed.shapelets) == len(serial.shapelets) > 0
        for a, b in zip(distributed.shapelets, serial.shapelets):
            assert a.label == b.label
            assert a.score == b.score
            assert np.array_equal(a.values, b.values)
        tallies = [
            {key: result.extra["perf"][key] for key in _TALLIES}
            for result in (distributed, serial)
        ]
        assert tallies[0] == tallies[1]


class TestDeadlineDuringPruning:
    """A deadline that expires while pruning runs downgrades selection to
    brute scoring and flags the run incomplete, serial or distributed."""

    @pytest.mark.parametrize("discoverer", [IPS, DistributedIPS])
    def test_expiry_in_pruning_skips_dt(
        self, planted, config, discoverer, monkeypatch
    ):
        real_monotonic = budget_module.time.monotonic
        skew = [0.0]
        monkeypatch.setattr(
            budget_module,
            "time",
            types.SimpleNamespace(monotonic=lambda: real_monotonic() + skew[0]),
        )
        prune = DABF.prune

        def prune_then_expire(self, *args, **kwargs):
            result = prune(self, *args, **kwargs)
            skew[0] = 7200.0
            return result

        monkeypatch.setattr(DABF, "prune", prune_then_expire)
        budgeted = dataclasses.replace(config, budget=Budget(max_seconds=3600.0))
        result = discoverer(budgeted).discover(planted)

        assert skew[0] == 7200.0
        assert result.completed is False
        assert result.extra["budget"]["progress"]["selection"]["dt_used"] is False
        assert len(result.shapelets) > 0
