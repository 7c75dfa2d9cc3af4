"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`instrument`
wraps the public functions each layer exposes (the names the IPS
pipeline, the serving layer and the streaming stack call) so that every
call records a span. Nothing inside ``src/`` changes; the wrappers are
installed only in the traced run and removed afterwards.

A span has a name, start and end (``time.perf_counter`` seconds), the
index of its parent span (the innermost open span on the same thread),
a request id (one fit, one predict pass, one served request, or one
stream session, set by the workload driver) and the workload phase it
ran in. A span's self time is its duration minus the time its children
cover; children of one span run on the same thread, one after another,
so they never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request_id: object
    phase: str
    thread: str


class SpanRecorder:
    """Collects spans in memory; :meth:`write_jsonl` dumps them at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self):
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.request_id = value

    @contextmanager
    def span(self, name: str, request_id=None):
        stack = self._stack()
        if request_id is not None:
            self.request_id = request_id
        record = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else None,
            request_id=self.request_id,
            phase=self.phase,
            thread=threading.current_thread().name,
        )
        self.spans.append(record)  # list.append is atomic under the GIL
        stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request_id": span.request_id,
                            "phase": span.phase,
                            "thread": span.thread,
                        },
                        default=str,
                    )
                    + "\n"
                )


class NullRecorder:
    """Recorder of the untraced run: records nothing."""

    phase = "setup"

    def span(self, name: str, request_id=None):
        return nullcontext()


def _wrap(recorder: SpanRecorder, func, name: str):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return func(*args, **kwargs)

    return wrapper


def _targets():
    """``(owner, attribute, span name)`` for every instrumented call.

    Module-level functions are patched where the caller looks them up:
    the pipeline imports ``generate_candidates`` and
    ``select_top_k_per_class`` by name, and ``IPSClassifier`` imports
    ``validate_dataset`` from :mod:`repro.validation` at call time.
    ``OneVsRestSVM.predict_proba`` is inherited from ``PredictorMixin``,
    which tells native from derived methods by identity, so it is left
    alone; its work is the wrapped ``decision_function`` plus a softmax.
    """
    import repro.core.pipeline as pipeline
    import repro.validation as validation
    from repro.classify.scaler import StandardScaler
    from repro.classify.svm import OneVsRestSVM
    from repro.core.transform import ShapeletTransform
    from repro.filters.dabf import DABF
    from repro.serve import InferenceService, StreamingInferenceService
    from repro.streaming import StreamingTransform

    return [
        (validation, "validate_dataset", "validation"),
        (pipeline, "generate_candidates", "instanceprofile.generate"),
        (DABF, "build", "filters.dabf_build"),
        (DABF, "prune", "filters.dabf_prune"),
        (pipeline, "score_with_class_fallback", "core.selection"),
        (pipeline, "select_top_k_per_class", "core.selection"),
        (ShapeletTransform, "transform", "core.transform"),
        (StandardScaler, "fit_transform", "classify"),
        (StandardScaler, "transform", "classify"),
        (OneVsRestSVM, "fit", "classify"),
        (OneVsRestSVM, "predict", "classify"),
        (OneVsRestSVM, "decision_function", "classify"),
        (InferenceService, "submit", "serve.submit"),
        (StreamingInferenceService, "submit_chunk", "stream.append"),
        (StreamingInferenceService, "open_stream", "streaming.session"),
        (StreamingInferenceService, "close_stream", "streaming.session"),
        (StreamingTransform, "append", "streaming.transform_append"),
    ]


@contextmanager
def instrument(recorder: SpanRecorder):
    """Install span wrappers on every target; restore the originals after."""
    saved = []
    try:
        for owner, attribute, name in _targets():
            original = inspect.getattr_static(owner, attribute)
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(recorder, original.__func__, name))
            else:
                wrapped = _wrap(recorder, original, name)
            saved.append((owner, attribute, original, attribute in vars(owner)))
            setattr(owner, attribute, wrapped)
        yield recorder
    finally:
        for owner, attribute, original, owned in reversed(saved):
            if owned:
                setattr(owner, attribute, original)
            else:  # inherited: drop the override to expose the base again
                delattr(owner, attribute)
