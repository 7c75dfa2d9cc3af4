"""Crash-safety suite: ``repro.io`` and every store that writes through it.

Three parts:

* ``TestAtomicWrite`` — a failure at each step of the write (write,
  fsync, rename) leaves the final path as it was and no temp file;
  disk-full errors reach store callers as each store's typed error.
* ``TestStores`` — the five stores (spectra store, serving artifact,
  campaign cell store, campaign journal, distributed checkpoint), each
  under round trip, truncated file, one flipped byte, and a stray temp
  file from a killed writer, checked against the store's documented
  read-side policy (docs/robustness.md, "Crash-safe writes"). Every
  store but the artifact sweeps dead writers' temp files when it opens.
* ``TestSigkill`` — writers SIGKILL'd mid-loop leave either no file or a
  complete earlier payload, and a store opened afterwards removes their
  temp files but keeps a live writer's.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.io as repro_io
from repro.campaign import CellStore, Journal
from repro.distributed import CheckpointStore
from repro.exceptions import (
    ArtifactIntegrityError,
    CampaignError,
    CheckpointError,
    ReproError,
    SpectraStoreError,
)
from repro.io import (
    atomic_write,
    check_manifest,
    sha256_bytes,
    sha256_file,
    sweep_dead_temp_files,
)
from repro.kernels import SpectraStore
from repro.obs import Trace
from repro.serve import load_artifact, save_artifact
from repro.types import Candidate, CandidateKind

#: Pid of a writer that was killed before it could rename its temp file:
#: Linux's PID_MAX_LIMIT (2**22), which no live process can have.
KILLED_PID = 4_194_304


def stray_name(name: str) -> str:
    """The temp-file name a killed ``atomic_write`` leaves next to ``name``."""
    return f"{name}.{KILLED_PID}.tmp"


def temp_files(directory: Path) -> list[Path]:
    return sorted(directory.rglob("*.tmp"))


class _DiskFull:
    """A file handle whose ``write`` lands half the bytes, then fails."""

    def __init__(self, fh) -> None:
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.fh.close()

    def write(self, data: bytes) -> None:
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _full_disk_open(path, mode):
    return _DiskFull(open(path, mode))


def _fail(*_args, **_kwargs):
    raise OSError(errno.EIO, "I/O error")


class WriteFailed(Exception):
    """A caller's typed write error."""


class TestAtomicWrite:
    def test_writes_payload_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write(target, b"first", WriteFailed)
        atomic_write(target, b"second", WriteFailed)
        assert target.read_bytes() == b"second"
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("existed", [False, True], ids=["absent", "present"])
    @pytest.mark.parametrize("step", ["write", "fsync", "replace"])
    def test_failed_step_keeps_old_file_and_leaves_no_temp(
        self, tmp_path, monkeypatch, step, existed
    ):
        target = tmp_path / "file.bin"
        if existed:
            atomic_write(target, b"old payload", WriteFailed)
        if step == "write":
            monkeypatch.setattr(repro_io, "open", _full_disk_open, raising=False)
        else:
            monkeypatch.setattr(repro_io.os, step, _fail)
        with pytest.raises(WriteFailed, match=re.escape(str(target))) as info:
            atomic_write(target, b"new payload", WriteFailed)
        assert isinstance(info.value.__cause__, OSError)
        monkeypatch.undo()
        if existed:
            assert target.read_bytes() == b"old payload"
        else:
            assert not target.exists()
        assert temp_files(tmp_path) == []

    def test_interrupt_removes_temp_and_is_not_wrapped(self, tmp_path, monkeypatch):
        def interrupt(*_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro_io.os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            atomic_write(tmp_path / "file.bin", b"payload", WriteFailed)
        assert list(tmp_path.iterdir()) == []

    def test_digests(self, tmp_path):
        payload = bytes(range(256)) * 5000  # > one 1 MiB read chunk
        path = tmp_path / "blob"
        atomic_write(path, payload, WriteFailed)
        expected = hashlib.sha256(payload).hexdigest()
        assert sha256_bytes(payload) == sha256_file(path) == expected


def _spectrum() -> np.ndarray:
    return np.fft.rfft(np.arange(32.0))


def _candidates() -> list[Candidate]:
    rng = np.random.default_rng(0)
    return [
        Candidate(
            values=rng.normal(size=20), label=label, kind=CandidateKind.MOTIF,
            source_instance=label, start=3, sample_id=1,
        )
        for label in (0, 1)
    ]


CELL = {"payload": {"status": "ok", "accuracy": 0.75}, "cell": {"cell_id": "a__b__c"}}


@pytest.mark.parametrize(
    "save, error",
    [
        pytest.param(
            lambda root: SpectraStore(root).save("k" * 64, _spectrum()),
            SpectraStoreError,
            id="spectra",
        ),
        pytest.param(
            lambda root: CheckpointStore(root).save("unit", _candidates()),
            CheckpointError,
            id="checkpoint",
        ),
        pytest.param(
            lambda root: CellStore(root).save_cell("a__b__c", CELL),
            CampaignError,
            id="cell",
        ),
        pytest.param(
            lambda root: Trace().to_jsonl(root / "trace.jsonl"),
            ReproError,
            id="trace",
        ),
    ],
)
@pytest.mark.parametrize("existed", [False, True], ids=["absent", "present"])
def test_disk_full_raises_typed_error_naming_the_path(
    tmp_path, monkeypatch, save, error, existed
):
    """Each store (and the trace JSONL sink) turns an ``OSError`` from the
    write into its own error."""
    if existed:
        save(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    monkeypatch.setattr(repro_io, "open", _full_disk_open, raising=False)
    with pytest.raises(error, match=re.escape(str(tmp_path))) as info:
        save(tmp_path)
    assert isinstance(info.value.__cause__, OSError)
    assert info.value.__cause__.errno == errno.ENOSPC
    monkeypatch.undo()
    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert after == before
    assert temp_files(tmp_path) == []


def test_trace_jsonl_under_a_file_raises_typed_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ReproError, match=re.escape(str(blocker))) as info:
        Trace().to_jsonl(blocker / "run.jsonl")
    assert isinstance(info.value.__cause__, OSError)


@pytest.mark.parametrize(
    "store_cls, error, owner",
    [(CellStore, CampaignError, "campaign"), (CheckpointStore, CheckpointError, "run")],
)
def test_fingerprint_manifest_is_write_once(tmp_path, store_cls, error, owner):
    store = store_cls(tmp_path)
    store.check_manifest({"seed": 0, "q_n": 6})
    store.check_manifest({"seed": 0, "q_n": 6})  # same fingerprint: resume
    assert json.loads((tmp_path / "manifest.json").read_text()) == {
        "seed": 0, "q_n": 6,
    }
    with pytest.raises(error, match=f"different {owner}"):
        store.check_manifest({"seed": 1, "q_n": 6})
    (tmp_path / "manifest.json").write_text("{torn")
    with pytest.raises(error, match="unreadable"):
        store.check_manifest({"seed": 0, "q_n": 6})


def test_check_manifest_write_failure_is_typed(tmp_path, monkeypatch):
    monkeypatch.setattr(repro_io.os, "fsync", _fail)
    with pytest.raises(CheckpointError, match="cannot write"):
        check_manifest(tmp_path / "manifest.json", {"a": 1}, CheckpointError, "run")
    assert list(tmp_path.iterdir()) == []


# -- the five stores --------------------------------------------------------
#
# Each adapter writes one entry, names the files a crash or disk fault
# could damage, and asserts the store's documented outcome for a damaged
# entry and for a stray temp file left by a killed writer.


class SpectraCase:
    key, other = "entry", "other"
    files = ("entry.npy", "entry.json")

    def write(self, root):
        SpectraStore(root).save(self.key, _spectrum())

    def assert_intact(self, root):
        store = SpectraStore(root)
        np.testing.assert_array_equal(store.load(self.key), _spectrum())
        assert len(store) == 1

    def assert_damaged(self, root, name):
        # A cache: the entry is a miss; a payload failing its checksum is
        # unlinked; saving again serves the recomputed entry.
        store = SpectraStore(root)
        assert store.load(self.key) is None
        if name.endswith(".npy"):
            assert list(root.iterdir()) == []
        store.save(self.key, _spectrum())
        np.testing.assert_array_equal(store.load(self.key), _spectrum())

    def write_stray(self, root):
        for suffix in (".npy", ".json"):
            (root / stray_name(self.other + suffix)).write_bytes(b"\x93NUMPY torn")

    def assert_stray_ignored(self, root):
        store = SpectraStore(root)
        assert store.load(self.other) is None
        self.assert_intact(root)


class ArtifactCase:
    files = ("model.bin", "manifest.json")

    def __init__(self, classifier, X) -> None:
        self.classifier, self.X = classifier, X

    def write(self, root):
        save_artifact(self.classifier, root)

    def assert_intact(self, root):
        loaded = load_artifact(root)
        np.testing.assert_array_equal(
            loaded.predict(self.X), self.classifier.predict(self.X)
        )

    def assert_damaged(self, root, name):
        # Artifacts are never repaired: loading raises a typed error.
        with pytest.raises(ArtifactIntegrityError):
            load_artifact(root)

    def write_stray(self, root):
        (root / stray_name("model.bin")).write_bytes(b"half a pickle")
        (root / stray_name("manifest.json")).write_bytes(b'{"files": {"mod')

    def assert_stray_ignored(self, root):
        self.assert_intact(root)


class CellCase:
    cell_id = "a__b__c"
    files = (f"cells/{cell_id}.json",)

    def write(self, root):
        self.sha = CellStore(root).save_cell(self.cell_id, CELL)

    def assert_intact(self, root):
        store = CellStore(root)
        assert store.load_cell(self.cell_id, expected_sha=self.sha) == CELL
        assert store.cell_ids() == {self.cell_id}

    def assert_damaged(self, root, name):
        # Evidence: renamed aside with a warning, reported missing.
        store = CellStore(root)
        with pytest.warns(RuntimeWarning, match="unusable"):
            assert store.load_cell(self.cell_id, expected_sha=self.sha) is None
        path = store.cell_path(self.cell_id)
        assert not path.exists()
        assert path.with_name(path.name + ".quarantine").exists()
        assert store.cell_ids() == set()

    def write_stray(self, root):
        (root / "cells" / stray_name("x__y__z.json")).write_bytes(b'{"payl')

    def assert_stray_ignored(self, root):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert CellStore(root).load_cell("x__y__z") is None
        self.assert_intact(root)


class JournalCase:
    files = ("journal.jsonl",)
    records = [
        {"type": "campaign_started", "n_cells": 4},
        *({"type": "cell_started", "cell_id": f"c{i}"} for i in range(4)),
        {"type": "campaign_finished", "n_ok": 4},
    ]

    def write(self, root):
        journal = Journal(root / "journal.jsonl")
        for record in self.records:
            journal.append(record)

    def assert_intact(self, root):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Journal(root / "journal.jsonl").replay() == self.records

    def assert_damaged(self, root, name):
        # Bad lines move to a sidecar; the journal is rewritten to the
        # surviving records, in order, and replays clean afterwards.
        journal = Journal(root / "journal.jsonl")
        with pytest.warns(RuntimeWarning, match="unparseable"):
            survivors = journal.replay()
        assert 0 < len(survivors) < len(self.records)
        assert survivors == [r for r in self.records if r in survivors]
        assert journal.quarantine_path.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert journal.replay() == survivors

    def write_stray(self, root):
        (root / stray_name("journal.jsonl")).write_bytes(b'{"type": "campaign_st')

    def assert_stray_ignored(self, root):
        self.assert_intact(root)


class CheckpointCase:
    files = ("unit_a.npz",)

    def write(self, root):
        CheckpointStore(root).save("a", _candidates())

    def assert_intact(self, root):
        store = CheckpointStore(root)
        assert store.load("a") == _candidates()
        assert store.completed_keys() == {"a"}

    def assert_damaged(self, root, name):
        # A cache: the entry is deleted and the unit recomputed.
        store = CheckpointStore(root)
        assert store.load("a") is None
        assert store.completed_keys() == set()
        store.save("a", _candidates())
        self.assert_intact(root)

    def write_stray(self, root):
        (root / stray_name("unit_b.npz")).write_bytes(b"PK\x03\x04torn")

    def assert_stray_ignored(self, root):
        store = CheckpointStore(root)
        assert not store.has("b") and store.load("b") is None
        self.assert_intact(root)


def _truncate(path: Path) -> None:
    """A torn tail: the last few bytes never reached the disk."""
    path.write_bytes(path.read_bytes()[:-8])


def _flip_byte(path: Path) -> None:
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    path.write_bytes(bytes(payload))


_DAMAGE = {"truncated": _truncate, "flipped": _flip_byte}

_CASES = {
    "spectra": SpectraCase,
    "artifact": ArtifactCase,
    "cell": CellCase,
    "journal": JournalCase,
    "checkpoint": CheckpointCase,
}

_DAMAGED = [
    pytest.param(store, damage, name, id=f"{store}-{damage}-{name.split('/')[-1]}")
    for store, case in _CASES.items()
    for name in case.files
    for damage in _DAMAGE
]


@pytest.fixture()
def make_case(frozen_classifier, tiny_two_class):
    def make(store):
        if store == "artifact":
            return ArtifactCase(frozen_classifier, tiny_two_class.X)
        return _CASES[store]()

    return make


class TestStores:
    @pytest.mark.parametrize("store", list(_CASES))
    def test_round_trip(self, tmp_path, make_case, store):
        case = make_case(store)
        case.write(tmp_path)
        case.assert_intact(tmp_path)
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("store, damage, name", _DAMAGED)
    def test_damaged_file(self, tmp_path, make_case, store, damage, name):
        case = make_case(store)
        case.write(tmp_path)
        _DAMAGE[damage](tmp_path / name)
        case.assert_damaged(tmp_path, name)

    @pytest.mark.parametrize("store", list(_CASES))
    def test_stray_temp_from_killed_writer(self, tmp_path, make_case, store):
        """A temp file is never counted, loaded or replayed as an entry."""
        case = make_case(store)
        case.write(tmp_path)
        case.write_stray(tmp_path)
        case.assert_stray_ignored(tmp_path)
        # Opening the store swept the dead writer's files (artifacts are
        # written once by save_artifact and never reopened for writing).
        if store != "artifact":
            assert temp_files(tmp_path) == []


# -- SIGKILL ----------------------------------------------------------------

# The writer loads repro/io.py by path: it needs only the stdlib, and
# skipping the package import keeps each subprocess's start-up short.
_WRITER = """
import hashlib, importlib.util, random, sys

spec = importlib.util.spec_from_file_location("repro_io", sys.argv[3])
repro_io = importlib.util.module_from_spec(spec)
spec.loader.exec_module(repro_io)
path, rng = sys.argv[1], random.Random(int(sys.argv[2]))
first = True
while True:
    body = rng.randbytes(rng.randrange(1, 1 << 17))
    repro_io.atomic_write(
        path, hashlib.sha256(body).hexdigest().encode() + b"\\n" + body, OSError
    )
    if first:
        print("ready", flush=True)
        first = False
"""


class TestSigkill:
    N_WRITERS = 3

    def test_killed_writer_leaves_absent_or_complete_file(self, tmp_path):
        targets = [tmp_path / f"w{i}" / "payload.bin" for i in range(self.N_WRITERS)]
        writers = []
        for seed, target in enumerate(targets):
            target.parent.mkdir()
            writers.append(
                subprocess.Popen(
                    [sys.executable, "-c", _WRITER, str(target), str(seed),
                     repro_io.__file__],
                    stdout=subprocess.PIPE,
                )
            )
        rng = random.Random(0)
        try:
            for proc in writers:
                assert proc.stdout.readline() == b"ready\n"
                time.sleep(rng.uniform(0.0, 0.05))  # land mid-write/fsync/rename
                proc.send_signal(signal.SIGKILL)
        finally:
            for proc in writers:
                proc.kill()
                proc.wait(timeout=30)
                proc.stdout.close()
        for proc, target in zip(writers, targets):
            assert proc.returncode == -signal.SIGKILL
            if target.exists():
                digest, _, body = target.read_bytes().partition(b"\n")
                assert sha256_bytes(body).encode() == digest
            # A killed writer leaves at most its own pid-suffixed temp file,
            # and a store opened on its directory sweeps it.
            leftovers = temp_files(target.parent)
            assert leftovers in ([], [target.with_name(f"payload.bin.{proc.pid}.tmp")])
            SpectraStore(target.parent)
            assert temp_files(target.parent) == []

    def test_sweep_keeps_live_writers_and_foreign_files(self, tmp_path):
        sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            live = [tmp_path / f"a.npy.{pid}.tmp" for pid in (os.getpid(), sleeper.pid)]
            foreign = [tmp_path / "notes.tmp", tmp_path / "c.npy.12x.tmp"]
            for path in (*live, *foreign, tmp_path / stray_name("b.npy")):
                path.write_bytes(b"torn")
            sweep_dead_temp_files(tmp_path)
            assert temp_files(tmp_path) == sorted(live + foreign)
        finally:
            sleeper.kill()
            sleeper.wait(timeout=30)

    def test_journal_sweeps_only_its_own_temp_files(self, tmp_path):
        mine, other = tmp_path / stray_name("journal.jsonl"), tmp_path / stray_name("x.json")
        for path in (mine, other):
            path.write_bytes(b"torn")
        Journal(tmp_path / "journal.jsonl")
        assert temp_files(tmp_path) == [other]
