"""Unit tests for ``repro.campaign``: spec, journal, store, scenarios,
runner, and results collection. The kill/resume chaos suite lives in
``test_campaign_chaos.py``; both files carry the ``campaign`` marker
automatically (see ``conftest.py``)."""

from __future__ import annotations

import json
import signal
import warnings

import numpy as np
import pytest

from repro.campaign import (
    CampaignCell,
    CampaignRunner,
    CampaignSpec,
    CellStore,
    Journal,
    ResultsFrame,
    apply_scenario,
    build_frame,
    derive_cell_seed,
    register_scenario,
    scenario_names,
    validate_cell_result,
    write_report,
)
from repro.benchlib.tables import collect_cell_rows
from repro.exceptions import CampaignError, JournalError, ValidationError

SPEC = CampaignSpec(
    datasets=("CBF", "GunPoint"),
    methods=("1NN-ED", "BOP"),
    scenarios=("clean", "noise"),
    seed=7,
    name="unit",
)


def fake_worker(cell: CampaignCell) -> dict:
    """Deterministic stand-in for :func:`repro.campaign.run_cell`."""
    return {
        "accuracy": (cell.seed % 1000) / 1000.0,
        "completed": True,
        "discovery_seconds": float("nan"),
        "fit_seconds": 0.01,
    }


def crashing_worker(cell: CampaignCell) -> dict:
    if cell.method == "BOP" and cell.dataset == "CBF":
        raise ValueError("synthetic baseline crash")
    return fake_worker(cell)


class TestSpec:
    def test_cells_deterministic_order_and_count(self):
        cells = SPEC.cells()
        assert len(cells) == 8
        assert [c.cell_id for c in cells] == [c.cell_id for c in SPEC.cells()]
        assert cells[0].cell_id == "CBF__1NN-ED__clean"

    def test_cell_seed_stable_under_spec_growth(self):
        # Hash-derived, not positional: adding a dataset/method must not
        # change any pre-existing cell's seed (or its result).
        grown = CampaignSpec(
            datasets=("CBF", "GunPoint", "ArrowHead"),
            methods=("1NN-ED", "BOP", "TSF"),
            scenarios=("clean", "noise"),
            seed=7,
        )
        old = {c.cell_id: c.seed for c in SPEC.cells()}
        new = {c.cell_id: c.seed for c in grown.cells()}
        for cell_id, seed in old.items():
            assert new[cell_id] == seed
        assert derive_cell_seed(7, "CBF", "BOP", "clean") == old["CBF__BOP__clean"]
        assert derive_cell_seed(8, "CBF", "BOP", "clean") != old["CBF__BOP__clean"]

    def test_roundtrip_and_fingerprint(self):
        again = CampaignSpec.from_dict(SPEC.to_dict())
        assert again == SPEC
        assert "name" in SPEC.to_dict()
        assert "name" not in SPEC.fingerprint_fields()

    def test_rejects_bad_specs(self):
        with pytest.raises(CampaignError):
            CampaignSpec(datasets=(), methods=("BOP",))
        with pytest.raises(CampaignError):
            CampaignSpec(datasets=("CBF", "CBF"), methods=("BOP",))
        with pytest.raises(CampaignError):
            CampaignSpec(datasets=("CBF",), methods=("BOP",), validation="maybe")
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict({**SPEC.to_dict(), "surprise": 1})

    def test_validate_names_catches_unknowns(self):
        bad_method = CampaignSpec(datasets=("CBF",), methods=("NOPE",))
        with pytest.raises(CampaignError, match="unknown method"):
            bad_method.validate_names()
        bad_scenario = CampaignSpec(
            datasets=("CBF",), methods=("BOP",), scenarios=("gamma-rays",)
        )
        with pytest.raises(CampaignError, match="unknown scenario"):
            bad_scenario.validate_names()


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        events = [{"type": "a", "n": 1}, {"type": "b", "n": 2}]
        for event in events:
            journal.append(event)
        assert journal.replay() == events

    def test_missing_journal_is_empty(self, tmp_path):
        assert Journal(tmp_path / "absent.jsonl").replay() == []

    def test_append_requires_typed_dict(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(JournalError):
            journal.append({"no_type": True})

    def test_torn_tail_quarantined_and_recovered(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"type": "a", "n": 1})
        journal.append({"type": "b", "n": 2})
        with open(journal.path, "ab") as fh:  # simulate a SIGKILL mid-append
            fh.write(b'{"type": "c", "n"')
        with pytest.warns(RuntimeWarning, match="unparseable"):
            records = journal.replay()
        assert [r["type"] for r in records] == ["a", "b"]
        assert b'{"type": "c"' in journal.quarantine_path.read_bytes()
        # The journal was rewritten clean: a second replay is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert journal.replay() == records

    def test_corrupt_middle_line_quarantined(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"type": "a"})
        with open(journal.path, "ab") as fh:
            fh.write(b"\x00\xffgarbage\n")
        journal.append({"type": "b"})
        with pytest.warns(RuntimeWarning):
            records = journal.replay()
        assert [r["type"] for r in records] == ["a", "b"]

    def test_truncation_property(self, tmp_path):
        """Journal replay after truncation at *any* byte offset recovers
        exactly the complete-line prefix (hypothesis when available)."""
        try:
            from hypothesis import given, settings
            from hypothesis import strategies as st
        except ImportError:  # pragma: no cover - env without hypothesis
            pytest.skip("hypothesis not installed")

        events = [{"type": "ev", "n": i, "blob": "x" * (i % 7)} for i in range(8)]

        @settings(max_examples=40, deadline=None)
        @given(cut=st.integers(min_value=0, max_value=400))
        def check(cut: int):
            path = tmp_path / "prop.jsonl"
            for leftover in (path, path.with_name("prop.jsonl.quarantine")):
                if leftover.exists():
                    leftover.unlink()
            journal = Journal(path)
            for event in events:
                journal.append(event)
            raw = path.read_bytes()
            cut_at = min(cut, len(raw))
            path.write_bytes(raw[:cut_at])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                records = journal.replay()
            # Every complete line survives; the torn tail survives only
            # in the lucky case where the cut fell exactly after the
            # closing brace (the record is whole, just missing its \n).
            n_complete = raw[:cut_at].count(b"\n")
            assert len(records) in (n_complete, n_complete + 1)
            assert records == events[: len(records)]
            # Recovery is idempotent and now warning-free.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert journal.replay() == records

        check()


class TestCellStore:
    def test_save_load_roundtrip_with_checksum(self, tmp_path):
        store = CellStore(tmp_path)
        record = {"payload": {"status": "ok"}, "cell": {"cell_id": "a__b__c"}}
        sha = store.save_cell("a__b__c", record)
        assert store.load_cell("a__b__c", expected_sha=sha) == record
        assert store.load_cell("a__b__c") == record
        assert store.cell_ids() == {"a__b__c"}

    def test_unparseable_cell_quarantines(self, tmp_path):
        store = CellStore(tmp_path)
        store.cell_path("x__y__z").write_bytes(b"{nope")
        with pytest.warns(RuntimeWarning):
            assert store.load_cell("x__y__z") is None

    def test_manifest_guard(self, tmp_path):
        store = CellStore(tmp_path)
        store.check_manifest({"spec": 1})
        store.check_manifest({"spec": 1})  # idempotent
        with pytest.raises(CampaignError, match="different campaign"):
            store.check_manifest({"spec": 2})
        assert store.read_manifest() == {"spec": 1}

    def test_read_manifest_missing(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            CellStore(tmp_path / "fresh").read_manifest()


class TestScenarios:
    @pytest.fixture(scope="class")
    def data(self):
        from repro.datasets.loader import load_dataset

        return load_dataset(
            "CBF", seed=0, max_train=9, max_test=12, max_length=60
        )

    def test_builtins_registered(self):
        names = scenario_names()
        for expected in (
            "clean", "noise", "spikes", "dropout", "drift", "warp",
            "missing", "label_noise",
        ):
            assert expected in names

    @pytest.mark.parametrize(
        "name",
        ["clean", "noise", "spikes", "dropout", "drift", "warp",
         "missing", "label_noise"],
    )
    def test_pure_deterministic_finite(self, data, name):
        train_X = data.train.X.copy()
        test_X = data.test.X.copy()
        first = apply_scenario(data, name, seed=123)
        second = apply_scenario(data, name, seed=123)
        assert np.array_equal(data.train.X, train_X)  # input untouched
        assert np.array_equal(data.test.X, test_X)
        assert np.array_equal(first.test.X, second.test.X)
        assert np.array_equal(first.train.y, second.train.y)
        assert np.all(np.isfinite(first.test.X))
        assert first.test.X.shape == test_X.shape

    def test_perturbing_scenarios_change_test_only(self, data):
        out = apply_scenario(data, "missing", seed=5)
        assert not np.array_equal(out.test.X, data.test.X)
        assert np.array_equal(out.train.X, data.train.X)
        assert np.array_equal(out.train.y, data.train.y)

    def test_label_noise_changes_train_labels_only(self, data):
        out = apply_scenario(data, "label_noise", seed=5)
        assert np.array_equal(out.test.X, data.test.X)
        assert np.array_equal(out.train.X, data.train.X)
        before = data.train.classes_[data.train.y]
        after = out.train.classes_[out.train.y]
        assert not np.array_equal(before, after)
        assert set(np.unique(after)) <= set(np.unique(before))

    def test_unknown_scenario_typed_error(self, data):
        with pytest.raises(CampaignError, match="unknown scenario"):
            apply_scenario(data, "solar-flare", seed=0)

    def test_register_rejects_duplicates_unless_overwrite(self):
        with pytest.raises(CampaignError, match="already registered"):
            register_scenario("clean", lambda d, s: d)
        register_scenario(
            "clean", lambda d, s: d, "unmodified train/test splits",
            overwrite=True,
        )


class TestValidateCellResult:
    def test_accepts_healthy_payload(self):
        assert validate_cell_result({"accuracy": 0.5}) is None

    def test_rejects_bad_payloads(self):
        from repro.distributed.faults import DroppedResult

        assert "dropped" in validate_cell_result(DroppedResult())
        assert "dict" in validate_cell_result([0.5])
        assert "non-finite" in validate_cell_result({"accuracy": float("nan")})
        assert "outside" in validate_cell_result({"accuracy": 1.5})


class TestRunner:
    def test_full_run_and_status(self, tmp_path):
        runner = CampaignRunner(SPEC, tmp_path / "c", worker_fn=fake_worker)
        status = runner.run()
        assert status["complete"] and status["n_ok"] == 8
        assert status["n_failed"] == 0 and status["n_pending"] == 0
        assert all(n == 1 for n in status["cell_starts"].values())

    def test_failed_cell_has_typed_provenance_and_campaign_continues(
        self, tmp_path
    ):
        runner = CampaignRunner(
            SPEC, tmp_path / "c", worker_fn=crashing_worker, retries=1
        )
        status = runner.run()
        assert status["complete"]
        assert status["n_failed"] == 2  # CBF x BOP x {clean, noise}
        assert status["failed_cells"] == [
            ("CBF__BOP__clean", "ValueError"),
            ("CBF__BOP__noise", "ValueError"),
        ]
        record = json.loads(
            (tmp_path / "c" / "cells" / "CBF__BOP__clean.json").read_text()
        )
        assert record["payload"]["status"] == "failed"
        assert record["payload"]["error_type"] == "ValueError"
        assert "synthetic baseline crash" in record["payload"]["error"]
        assert record["payload"]["attempts"] == 2  # initial + 1 retry

    def test_resume_skips_completed_cells(self, tmp_path):
        d = tmp_path / "c"
        first = CampaignRunner(SPEC, d, worker_fn=fake_worker)
        first.run(max_cells=3)
        assert first.status()["n_pending"] == 5
        second = CampaignRunner(SPEC, d, worker_fn=fake_worker)
        status = second.run()
        assert status["complete"]
        # Zero re-runs: every cell was started exactly once overall.
        assert all(n == 1 for n in status["cell_starts"].values())

    def test_fingerprint_guard_blocks_policy_drift(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(SPEC, d, worker_fn=fake_worker, retries=2).run(max_cells=1)
        with pytest.raises(CampaignError, match="different campaign"):
            CampaignRunner(SPEC, d, worker_fn=fake_worker, retries=5).run()

    def test_from_dir_restores_spec_and_policy(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(
            SPEC, d, worker_fn=fake_worker, retries=4, max_cell_seconds=9.5
        ).run(max_cells=2)
        resumed = CampaignRunner.from_dir(d, worker_fn=fake_worker)
        assert resumed.spec.fingerprint_fields() == SPEC.fingerprint_fields()
        assert resumed.spec.name == "c"  # directory names the campaign
        assert resumed.retries == 4
        assert resumed.max_cell_seconds == 9.5
        assert resumed.run()["complete"]

    def test_corrupt_cell_file_is_recomputed_on_resume(self, tmp_path):
        d = tmp_path / "c"
        runner = CampaignRunner(SPEC, d, worker_fn=fake_worker)
        runner.run()
        target = d / "cells" / "CBF__BOP__clean.json"
        target.write_text('{"payload": {"status": "ok", "accuracy"')
        again = CampaignRunner(SPEC, d, worker_fn=fake_worker)
        with pytest.warns(RuntimeWarning, match="unusable"):
            status = again.run()
        assert status["complete"] and status["n_ok"] == 8
        # The damaged cell ran a second time; the other seven did not.
        assert status["cell_starts"]["CBF__BOP__clean"] == 2
        others = [
            n for cell_id, n in status["cell_starts"].items()
            if cell_id != "CBF__BOP__clean"
        ]
        assert all(n == 1 for n in others)

    def test_rejects_bad_policy(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRunner(SPEC, tmp_path, retries=-1)
        with pytest.raises(CampaignError):
            CampaignRunner(SPEC, tmp_path, max_cell_seconds=0.0)


class TestGracefulInterrupt:
    def test_first_signal_latches_second_raises(self):
        from repro.distributed.interrupt import GracefulInterrupt

        with GracefulInterrupt() as interrupt:
            assert not interrupt.triggered
            signal.raise_signal(signal.SIGINT)
            assert interrupt.triggered
            assert interrupt.signal_name == "SIGINT"
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)
        # Handlers restored: a SIGINT now raises KeyboardInterrupt normally.
        with pytest.raises(KeyboardInterrupt):
            signal.raise_signal(signal.SIGINT)

    def test_campaign_interrupt_finishes_inflight_cell_then_stops(
        self, tmp_path
    ):
        d = tmp_path / "c"
        hit: list[str] = []

        def interrupting_worker(cell: CampaignCell) -> dict:
            hit.append(cell.cell_id)
            if len(hit) == 2:
                signal.raise_signal(signal.SIGINT)  # operator presses Ctrl-C
            return fake_worker(cell)

        runner = CampaignRunner(SPEC, d, worker_fn=interrupting_worker)
        status = runner.run()
        # The in-flight (second) cell was finished and journaled before
        # the loop wound down; nothing after it started.
        assert len(hit) == 2
        assert status["n_ok"] == 2 and status["n_pending"] == 6
        assert status["interrupted"]
        events = [r["type"] for r in runner.journal.replay()]
        assert events[-1] == "campaign_interrupted"
        assert events.count("cell_finished") == 2
        # A plain resume completes the matrix with zero re-runs.
        final = CampaignRunner(SPEC, d, worker_fn=fake_worker).run()
        assert final["complete"] and not final["interrupted"]
        assert all(n == 1 for n in final["cell_starts"].values())

    def test_distributed_ips_first_signal_stops_after_round(self):
        """Satellite: DistributedIPS winds down cleanly on first SIGINT —
        the interrupted round still yields a usable (truncated) model."""
        from repro.benchlib.runners import make_distributed_ips
        from repro.datasets.loader import load_dataset

        data = load_dataset(
            "GunPoint", seed=0, max_train=12, max_test=10, max_length=80
        )
        fired = {"done": False}

        class SignalingExecutor:
            """Serial executor that raises SIGINT during the first round."""

            def map(self, fn, units):
                out = [fn(u) for u in units]
                if not fired["done"]:
                    fired["done"] = True
                    signal.raise_signal(signal.SIGINT)
                return out

        model = make_distributed_ips(
            k=3, seed=0, q_n=4, q_s=3, executor=SignalingExecutor()
        )
        model.fit_dataset(data.train)
        result = model.discovery_result_
        assert result.extra["interrupted"]
        assert not result.completed
        assert len(result.shapelets) > 0  # flushed, not lost
