"""Serving-layer unit tests: artifacts, admission, breaker, service semantics.

The chaos campaigns live in ``test_serve_chaos.py`` and the
offline = served = artifact matrix in ``test_differential.py``; this
module pins the deterministic per-component contracts:

* artifacts hold only the model, and every way an artifact can be
  wrong (missing, corrupt, truncated, version-drifted, not-a-model) is
  refused with the *right* typed error;
* the admission queue implements both overflow policies exactly;
* the circuit breaker walks closed -> open -> half-open -> closed under
  an injected clock, one probe at a time;
* the service validates requests per the configured data-contract mode,
  enforces deadlines at admission and batch boundaries, completes every
  accepted request on shutdown, and answers bit-identically to offline
  ``IPSClassifier.predict``.
"""

from __future__ import annotations

import json
import pickle
import shutil
import threading
import time

import numpy as np
import pytest

from repro.core.config import IPSConfig
from repro.core.pipeline import IPSClassifier
from repro.distributed.faults import FaultPlan
from repro.exceptions import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactVersionError,
    DeadlineExceededError,
    InvalidRequestError,
    NotFittedError,
    QueueFullError,
    RequestSheddedError,
    ServiceClosedError,
    ValidationError,
)
from repro.io import sha256_file
from repro.serve import (
    ARTIFACT_FORMAT_VERSION,
    AdmissionQueue,
    CircuitBreaker,
    InferenceService,
    ServeConfig,
    ServeFuture,
    load_artifact,
    read_manifest,
    save_artifact,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN

pytestmark = pytest.mark.robustness


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory, frozen_classifier):
    path = tmp_path_factory.mktemp("artifact") / "model"
    save_artifact(frozen_classifier, path)
    return path


@pytest.fixture(scope="module")
def request_matrix(tiny_two_class):
    rng = np.random.default_rng(0)
    return tiny_two_class.X + 0.05 * rng.normal(size=tiny_two_class.X.shape)


def corrupted_copy(artifact_dir, dest):
    """A byte-flipped copy of an artifact (simulated bit rot)."""
    shutil.copytree(artifact_dir, dest)
    model = dest / "model.bin"
    payload = bytearray(model.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    model.write_bytes(bytes(payload))
    return dest


def rewrite_manifest(artifact_dir, dest, **updates):
    shutil.copytree(artifact_dir, dest)
    manifest = json.loads((dest / "manifest.json").read_text())
    manifest.update(updates)
    (dest / "manifest.json").write_text(json.dumps(manifest))
    return dest


class TestArtifacts:
    def test_payload_holds_only_the_model(self, artifact_dir, tiny_two_class):
        # Loaded rows equal the live classifier's: tests/test_differential.py.
        loaded = load_artifact(artifact_dir)
        assert loaded._dataset is None
        assert loaded.discoverer_ is None and loaded.discovery_result_ is None
        assert (artifact_dir / "model.bin").stat().st_size < tiny_two_class.X.nbytes

    def test_manifest_records_provenance(self, artifact_dir, tiny_two_class):
        manifest = read_manifest(artifact_dir)
        assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION
        assert manifest["model"]["series_length"] == tiny_two_class.series_length
        assert manifest["model"]["n_classes"] == tiny_two_class.n_classes
        assert sorted(manifest["model"]["classes"]) == sorted(
            int(c) for c in tiny_two_class.classes_
        )
        assert "model.bin" in manifest["files"]
        assert isinstance(manifest["git_sha"], str)  # never None, never raises
        assert {"numpy", "python"} <= set(manifest["versions"])
        assert manifest["dataset"]["sha256"]

    def test_frozen_copy_leaves_original_fitted(
        self, artifact_dir, frozen_classifier, request_matrix
    ):
        # Saving must not mutate the live classifier (copy semantics).
        assert frozen_classifier.discovery_result_ is not None
        assert frozen_classifier.predict(request_matrix) is not None

    def test_save_unfitted_refused(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_artifact(IPSClassifier(IPSConfig()), tmp_path / "nope")
        assert not (tmp_path / "nope" / "manifest.json").exists()

    def test_missing_directory_refused(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            load_artifact(tmp_path / "never_written")

    def test_missing_manifest_refused(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ArtifactError, match="manifest"):
            load_artifact(tmp_path / "empty")

    def test_bit_rot_fails_checksum(self, artifact_dir, tmp_path):
        bad = corrupted_copy(artifact_dir, tmp_path / "rotted")
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            load_artifact(bad)

    def test_unparseable_manifest_refused(self, artifact_dir, tmp_path):
        shutil.copytree(artifact_dir, tmp_path / "bad")
        (tmp_path / "bad" / "manifest.json").write_text("{truncated")
        with pytest.raises(ArtifactIntegrityError, match="unreadable"):
            load_artifact(tmp_path / "bad")

    def test_manifest_without_checksum_table_refused(
        self, artifact_dir, tmp_path
    ):
        shutil.copytree(artifact_dir, tmp_path / "bad")
        manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
        del manifest["files"]
        (tmp_path / "bad" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError, match="checksum table"):
            load_artifact(tmp_path / "bad")

    def test_future_format_version_refused(self, artifact_dir, tmp_path):
        bad = rewrite_manifest(artifact_dir, tmp_path / "v999", format_version=999)
        with pytest.raises(ArtifactVersionError, match="format_version"):
            load_artifact(bad)

    def test_format_1_artifact_asks_for_re_export(self, artifact_dir, tmp_path):
        # Format 1 pickled the training set and the _svm/_scaler/_transform
        # layout; it is refused by version before anything is unpickled.
        bad = rewrite_manifest(artifact_dir, tmp_path / "v1", format_version=1)
        with pytest.raises(ArtifactVersionError, match="re-export"):
            load_artifact(bad)

    def test_version_drift_refused_only_when_strict(
        self, artifact_dir, tmp_path
    ):
        bad = rewrite_manifest(
            artifact_dir, tmp_path / "drift", versions={"numpy": "0.0.0"}
        )
        load_artifact(bad)  # tolerant by default
        with pytest.raises(ArtifactVersionError, match="drifted"):
            load_artifact(bad, strict_versions=True)

    def test_missing_payload_file_refused(self, artifact_dir, tmp_path):
        shutil.copytree(artifact_dir, tmp_path / "gone")
        (tmp_path / "gone" / "model.bin").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            load_artifact(tmp_path / "gone")

    def test_unpicklable_payload_refused(self, artifact_dir, tmp_path):
        # Valid checksum over garbage bytes: integrity passes, unpickling
        # must still be caught and typed.
        shutil.copytree(artifact_dir, tmp_path / "garbage")
        model = tmp_path / "garbage" / "model.bin"
        model.write_bytes(b"\x00not a pickle")
        rewrite_manifest(
            tmp_path / "garbage",
            tmp_path / "garbage2",
            files={"model.bin": sha256_file(model)},
        )
        with pytest.raises(ArtifactIntegrityError, match="failed to load"):
            load_artifact(tmp_path / "garbage2")

    def test_wrong_payload_type_refused(self, artifact_dir, tmp_path):
        shutil.copytree(artifact_dir, tmp_path / "dict")
        model = tmp_path / "dict" / "model.bin"
        model.write_bytes(pickle.dumps({"not": "a classifier"}))
        rewrite_manifest(
            tmp_path / "dict",
            tmp_path / "dict2",
            files={"model.bin": sha256_file(model)},
        )
        with pytest.raises(ArtifactIntegrityError, match="not an IPSClassifier"):
            load_artifact(tmp_path / "dict2")


class TestAdmissionQueue:
    def test_parameters_validated(self):
        with pytest.raises(ValidationError):
            AdmissionQueue(0)
        with pytest.raises(ValidationError):
            AdmissionQueue(4, policy="drop-everything")

    def test_reject_newest_backpressure(self):
        queue = AdmissionQueue(2, policy="reject-newest")
        assert queue.put("a") == []
        assert queue.put("b") == []
        with pytest.raises(QueueFullError, match="backpressure"):
            queue.put("c")
        stats = queue.stats()
        assert stats["rejected"] == 1 and stats["waiting"] == 2

    def test_shed_oldest_evicts_fifo(self):
        queue = AdmissionQueue(2, policy="shed-oldest")
        queue.put("a")
        queue.put("b")
        assert queue.put("c") == ["a"]  # oldest pays
        assert queue.get_batch(10, timeout=0.01) == ["b", "c"]
        assert queue.stats()["shed"] == 1

    def test_closed_queue_refuses_and_unblocks(self):
        queue = AdmissionQueue(2)
        queue.put("a")
        queue.close()
        with pytest.raises(ServiceClosedError):
            queue.put("b")
        # Closed queue still hands out what it holds, then empty batches.
        assert queue.get_batch(10, timeout=0.01) == ["a"]
        assert queue.get_batch(10, timeout=0.01) == []

    def test_drain_empties(self):
        queue = AdmissionQueue(4)
        queue.put("a")
        queue.put("b")
        assert queue.drain() == ["a", "b"]
        assert len(queue) == 0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestCircuitBreaker:
    def test_parameters_validated(self):
        with pytest.raises(ValidationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValidationError):
            CircuitBreaker(reset_after=-1.0)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()

    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after=1.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.stats()["times_opened"] == 1

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else waits on it
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_probe_failure_reopens_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=5, reset_after=1.0, clock=clock)
        for _ in range(5):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # probe verdict: still broken
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()  # next probe window


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_depth": 0},
            {"shed_policy": "coin-flip"},
            {"max_batch": 0},
            {"batch_wait_s": 0.0},
            {"default_deadline_s": -1.0},
            {"validation": "maybe"},
            {"n_workers": 0},
            {"serial_retries": -1},
        ],
    )
    def test_bad_config_refused(self, kwargs):
        with pytest.raises(ValidationError):
            ServeConfig(**kwargs)


class TestServeFuture:
    def test_result_times_out_while_pending(self):
        future = ServeFuture(0)
        with pytest.raises(TimeoutError, match="still pending"):
            future.result(timeout=0.01)
        assert not future.done()


class TestInferenceService:
    def test_unfitted_classifier_refused(self):
        with pytest.raises(NotFittedError):
            InferenceService(IPSClassifier(IPSConfig()))

    def test_multivariate_model_refused_up_front(self, multivariate_classifier):
        """A multivariate model embeds ``(M, D, N)`` input; the service
        takes ``(N,)`` series, so it is refused before any worker runs."""
        with pytest.raises(ValidationError, match="ChannelShapeletTransform"):
            InferenceService(multivariate_classifier)

    def test_happy_path_bit_identical(self, frozen_classifier, request_matrix):
        offline = frozen_classifier.predict(request_matrix)
        with InferenceService(frozen_classifier) as service:
            results = service.predict_many(request_matrix)
            stats = service.stats()
        assert all(error is None for _label, error in results)
        np.testing.assert_array_equal(
            np.array([label for label, _ in results]), offline
        )
        assert stats["completed"] == len(request_matrix)
        assert stats["failed"] == 0 and stats["expired"] == 0

    def test_concurrent_clients_mixed_modes_bit_identical(
        self, frozen_classifier, request_matrix
    ):
        # Four client threads submit interleaved rows, cycling through
        # the label/proba/scores modes, into one service whose queue
        # holds them all; every response must equal the offline answer.
        offline = {
            "label": frozen_classifier.predict(request_matrix),
            "proba": frozen_classifier.predict_proba(request_matrix),
            "scores": frozen_classifier.decision_function(request_matrix),
        }
        modes = tuple(offline)
        n, n_clients = len(request_matrix), 4
        responses: list = [None] * n
        config = ServeConfig(queue_depth=n, max_batch=8)
        with InferenceService(frozen_classifier, config) as service:

            def client(indices):
                futures = [
                    (i, service.submit(request_matrix[i], mode=modes[i % 3]))
                    for i in indices
                ]
                for i, future in futures:
                    responses[i] = future.result(timeout=30.0)

            threads = [
                threading.Thread(target=client, args=(range(c, n, n_clients),))
                for c in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            stats = service.stats()
        for i, response in enumerate(responses):
            expected = offline[modes[i % 3]][i]
            assert np.array_equal(response, expected), f"request {i}"
        assert stats["completed"] == n
        for key in ("failed", "shed", "rejected", "expired"):
            assert stats[key] == 0, key

    @pytest.mark.parametrize(
        "method", ["predict", "predict_proba", "decision_function"]
    )
    def test_1d_row_has_offline_shape(
        self, frozen_classifier, request_matrix, method
    ):
        row = request_matrix[0]
        offline = getattr(frozen_classifier, method)(row)
        with InferenceService(frozen_classifier) as service:
            served = getattr(service, method)(row)
            one = service.predict_one(row)
        assert served.shape == offline.shape
        np.testing.assert_array_equal(served, offline)
        if method == "predict":
            np.testing.assert_array_equal(
                served, np.array([one], dtype=np.int64), strict=True
            )

    def test_submit_before_start_refused(self, frozen_classifier):
        service = InferenceService(frozen_classifier)
        with pytest.raises(ServiceClosedError, match="not running"):
            service.submit(np.zeros(4))

    def test_nonpositive_deadline_expires_at_admission(
        self, frozen_classifier, request_matrix
    ):
        with InferenceService(frozen_classifier) as service:
            with pytest.raises(DeadlineExceededError, match="admission"):
                service.submit(request_matrix[0], deadline_s=0.0)

    def test_tiny_deadline_expires_at_batch_boundary(
        self, frozen_classifier, request_matrix
    ):
        with InferenceService(frozen_classifier) as service:
            future = service.submit(request_matrix[0], deadline_s=1e-9)
            with pytest.raises(DeadlineExceededError, match="deadline"):
                future.result(timeout=10.0)
        assert service.stats()["expired"] == 1

    @pytest.mark.parametrize(
        "series",
        [np.zeros((2, 8)), np.array([]), "not a series"],
        ids=["2d", "empty", "non-numeric"],
    )
    def test_malformed_requests_refused(self, frozen_classifier, series):
        with InferenceService(frozen_classifier) as service:
            with pytest.raises(InvalidRequestError):
                service.submit(series)
        assert service.stats()["invalid"] == 1

    def test_repair_mode_fixes_length_and_nans(
        self, frozen_classifier, tiny_two_class
    ):
        short = tiny_two_class.X[0][:-7].copy()
        short[3] = np.nan
        config = ServeConfig(validation="repair")
        with InferenceService(frozen_classifier, config) as service:
            label = service.predict_one(short)
        assert label in set(int(c) for c in tiny_two_class.classes_)

    def test_strict_mode_rejects_wrong_length_and_nans(
        self, frozen_classifier, tiny_two_class
    ):
        config = ServeConfig(validation="strict")
        with InferenceService(frozen_classifier, config) as service:
            with pytest.raises(InvalidRequestError, match="length"):
                service.submit(tiny_two_class.X[0][:-7])
            bad = tiny_two_class.X[0].copy()
            bad[0] = np.nan
            with pytest.raises(InvalidRequestError):
                service.submit(bad)

    def test_off_mode_requires_exact_finite_input(
        self, frozen_classifier, tiny_two_class, request_matrix
    ):
        offline = frozen_classifier.predict(request_matrix[:1])[0]
        config = ServeConfig(validation="off")
        with InferenceService(frozen_classifier, config) as service:
            assert service.predict_one(request_matrix[0]) == offline
            with pytest.raises(InvalidRequestError, match="length"):
                service.submit(tiny_two_class.X[0][:-7])
            bad = tiny_two_class.X[0].copy()
            bad[0] = np.inf
            with pytest.raises(InvalidRequestError, match="non-finite"):
                service.submit(bad)

    @pytest.mark.timeout_guard(30)
    def test_stop_completes_pending_with_typed_error(
        self, frozen_classifier, request_matrix
    ):
        """Shutdown never strands futures: queued work fails typed."""
        # Every attempt sleeps 0.3s, so the worker is busy with request 1
        # while 2 and 3 sit in the queue when stop() lands.
        plan = FaultPlan(hang_rate=1.0, hang_seconds=0.3, seed=0)
        config = ServeConfig(max_batch=1, serial_retries=0)
        service = InferenceService(frozen_classifier, config, fault_plan=plan)
        service.start()
        first = service.submit(request_matrix[0])
        time.sleep(0.05)  # let the worker take request 1
        queued = [service.submit(row) for row in request_matrix[1:3]]
        service.stop()
        for future in queued:
            with pytest.raises(ServiceClosedError, match="stopped"):
                future.result(timeout=5.0)
        assert first.done()  # the in-flight request still terminated

    @pytest.mark.timeout_guard(30)
    def test_shed_oldest_under_pressure(self, frozen_classifier, request_matrix):
        plan = FaultPlan(hang_rate=1.0, hang_seconds=0.25, seed=0)
        config = ServeConfig(
            queue_depth=1, shed_policy="shed-oldest", max_batch=1,
            serial_retries=0,
        )
        with InferenceService(frozen_classifier, config, fault_plan=plan) as service:
            service.submit(request_matrix[0])
            time.sleep(0.05)
            victim = service.submit(request_matrix[1])
            service.submit(request_matrix[2])  # queue full: sheds the victim
            with pytest.raises(RequestSheddedError, match="shed"):
                victim.result(timeout=5.0)
            assert service.stats()["shed"] == 1

    @pytest.mark.timeout_guard(30)
    def test_reject_newest_under_pressure(
        self, frozen_classifier, request_matrix
    ):
        plan = FaultPlan(hang_rate=1.0, hang_seconds=0.25, seed=0)
        config = ServeConfig(queue_depth=1, max_batch=1, serial_retries=0)
        with InferenceService(frozen_classifier, config, fault_plan=plan) as service:
            service.submit(request_matrix[0])
            time.sleep(0.05)
            service.submit(request_matrix[1])
            with pytest.raises(QueueFullError, match="full"):
                service.submit(request_matrix[2])
            assert service.stats()["rejected"] == 1

    def test_stats_surface_all_layers(self, frozen_classifier, request_matrix):
        with InferenceService(frozen_classifier) as service:
            service.predict_one(request_matrix[0])
            stats = service.stats()
        assert {"submitted", "completed", "batches", "serial_fallbacks"} <= set(
            stats
        )
        assert stats["queue"]["admitted"] == 1
        assert stats["breaker"]["state"] == CLOSED
