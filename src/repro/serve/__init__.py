"""``repro.serve``: fault-hardened online inference for frozen classifiers.

The serving layer of the reproduction (see ``docs/serving.md``), built
robustness-first around the failure modes of each piece:

* **artifacts** (:mod:`repro.serve.artifact`) — save/load a fitted
  classifier with a run-manifest-format manifest plus per-file SHA-256
  checksums; corrupt or version-mismatched artifacts are refused with
  typed errors instead of loaded on faith;
* **admission** (:mod:`repro.serve.queueing`) — a bounded queue whose
  overflow policy is explicit backpressure (``reject-newest``) or load
  shedding (``shed-oldest``);
* **execution** (:mod:`repro.serve.service`) — per-request validation
  through :mod:`repro.validation`, deadline enforcement at admission and
  kernel-batch boundaries, microbatching through the
  :mod:`repro.kernels` facade, one :class:`~repro.kernels.SeriesCache`
  per microbatch;
* **resilience** — a :class:`~repro.serve.breaker.CircuitBreaker`
  around the batched path with a serial-fallback degradation ladder,
  and deterministic chaos injection
  (:mod:`repro.serve.faults`) reusing the distributed
  :class:`~repro.distributed.faults.FaultPlan` keyed by request seed.

Every failure a caller can see is a typed
:class:`~repro.exceptions.ServeError` subclass. Successful responses are
bit-identical to offline ``IPSClassifier.predict`` — degradation changes
latency and availability, never answers.
"""

from repro.serve.artifact import (
    ARTIFACT_FORMAT_VERSION,
    load_artifact,
    read_manifest,
    save_artifact,
    verify_checksums,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.faults import CORRUPT_LABEL, RequestFaultInjector
from repro.serve.queueing import SHED_POLICIES, AdmissionQueue
from repro.serve.service import (
    REQUEST_MODES,
    InferenceService,
    ServeConfig,
    ServeFuture,
)
from repro.serve.streaming import StreamConfig, StreamingInferenceService

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "AdmissionQueue",
    "CORRUPT_LABEL",
    "CircuitBreaker",
    "InferenceService",
    "REQUEST_MODES",
    "RequestFaultInjector",
    "SHED_POLICIES",
    "ServeConfig",
    "ServeFuture",
    "StreamConfig",
    "StreamingInferenceService",
    "load_artifact",
    "read_manifest",
    "save_artifact",
    "verify_checksums",
]
