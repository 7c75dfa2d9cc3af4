"""Structured tracing: run-scoped span trees with a JSONL sink.

A :class:`Trace` is both the tracer (it owns the ``span()`` context
manager and the counter hooks the pipeline calls) and the resulting
artifact (a tree of closed :class:`Span` objects plus a
:class:`~repro.obs.metrics.MetricsRegistry` and a run manifest). The
pipeline threads exactly one tracer through a discovery run; call sites
never branch on the observability mode — in ``"off"`` and ``"counters"``
modes they receive the shared :data:`NULL_TRACER`, whose ``span()``
returns a reusable no-op context manager, so the hot paths allocate no
trace objects at all (``Span.allocated`` counts real allocations, which
the off-mode test pins at zero).

A pipeline *stage* (generation, pruning, selection, transform, ...) is
timed once, by ``tracer.stage(name, times)``: the null tracer reads the
clock around the block, a :class:`Trace` opens a span and reuses its
duration. Either way the reading is added into ``times[name]``, the one
source of the ``DiscoveryResult.time_*`` fields, of
``extra["perf"]["phase_seconds"]`` and of the trace's
``phase_seconds.*`` gauges.

Timestamps are monotonic (``time.perf_counter``) offsets from the trace
origin, so spans order correctly even across wall-clock adjustments.
Serialization (:meth:`Trace.to_jsonl` / :meth:`Trace.from_jsonl`) is
deterministic — sorted keys, depth-first span ids — so a round trip
reproduces the file bit-for-bit.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.exceptions import ReproError, ValidationError
from repro.io import atomic_write
from repro.obs.metrics import MetricsRegistry

#: Accepted values of ``IPSConfig.observability``.
OBSERVABILITY_MODES: tuple[str, ...] = ("off", "counters", "trace", "trace+jsonl")

#: Default sink of ``"trace+jsonl"`` runs (and default source of
#: ``repro obs report``), relative to the working directory.
DEFAULT_JSONL_PATH = Path(".repro-obs") / "last-run.jsonl"


def jsonify(value: object) -> object:
    """Coerce a value to JSON-native types (deterministically).

    Numbers, strings, booleans, and ``None`` pass through; numpy scalars
    are unwrapped; sequences and mappings recurse; anything else becomes
    its ``repr`` so a trace can always be serialized.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        try:
            return jsonify(value.item())
        except (TypeError, ValueError):
            return repr(value)
    if isinstance(value, dict):
        return {str(key): jsonify(val) for key, val in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonify(item) for item in items]
    return repr(value)


class Span:
    """One timed, attributed node of the span tree."""

    __slots__ = ("name", "attrs", "start", "end", "children", "counters")

    #: Process-wide tally of real span allocations — the off-mode test
    #: asserts this does not move during an ``observability="off"`` run.
    allocated = 0

    def __init__(self, name: str, attrs: dict, start: float) -> None:
        Span.allocated += 1
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end: float | None = None
        self.children: list[Span] = []
        self.counters: dict[str, float] = {}

    @property
    def duration(self) -> float:
        """Span wall time in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def closed(self) -> bool:
        """True once the span (and every descendant) has ended."""
        return self.end is not None and all(c.closed for c in self.children)

    def set(self, **attrs: object) -> "Span":
        """Attach or overwrite attributes after creation (returns self)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        """Nested JSON-friendly form (used by ``Trace.to_dict``)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": jsonify(self.attrs),
            "counters": jsonify(self.counters),
            "children": [c.to_dict() for c in self.children],
        }


class _NullSpan:
    """The span stand-in handed out by :class:`NullTracer`."""

    __slots__ = ()
    children: tuple = ()
    counters: dict = {}
    duration = 0.0
    closed = True

    def set(self, **attrs: object) -> "_NullSpan":
        """Discard attributes."""
        return self


NULL_SPAN = _NullSpan()


class _NullContext:
    """Reusable no-op context manager (no per-call allocation)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The do-nothing tracer used in ``"off"`` and ``"counters"`` modes.

    A process-wide singleton (:data:`NULL_TRACER`): every method is a
    no-op returning shared objects, so threading it through the pipeline
    costs a handful of attribute lookups and zero allocations.
    """

    __slots__ = ()
    active = False

    def span(self, name: str, **attrs: object) -> _NullContext:
        """A reusable no-op context manager yielding :data:`NULL_SPAN`."""
        return _NULL_CONTEXT

    @contextmanager
    def stage(self, name: str, times: dict, **attrs: object):
        """Add the block's wall time into ``times[name]`` (no span)."""
        start = time.perf_counter()
        try:
            yield NULL_SPAN
        finally:
            times[name] = times.get(name, 0.0) + (time.perf_counter() - start)

    def event(self, name: str, **attrs: object) -> _NullSpan:
        """Discard the event."""
        return NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        """Discard the counter increment."""


NULL_TRACER = NullTracer()


class Trace:
    """A run-scoped span tree plus metrics and manifest.

    Use :meth:`span` as a context manager; spans nest by runtime call
    structure and are guaranteed closed on exception (the ``finally``
    clause stamps the end time and unwinds the stack), so a failed or
    budget-truncated run still yields a well-nested, serializable trace.
    """

    active = True

    def __init__(self, mode: str = "trace") -> None:
        if mode not in OBSERVABILITY_MODES:
            raise ValidationError(f"unknown observability mode {mode!r}")
        self.mode = mode
        self.manifest: dict = {}
        self.metrics = MetricsRegistry()
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._origin = time.perf_counter()

    # -- recording --------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str, **attrs: object):
        """Open a child span of the innermost open span (or a new root)."""
        node = Span(name, dict(attrs), start=self._now())
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.end = self._now()
            # Unwind at least to this span even if an inner frame leaked
            # an open child (keeps the tree well-nested under exceptions).
            while self._stack and self._stack.pop() is not node:
                pass

    @contextmanager
    def stage(self, name: str, times: dict, **attrs: object):
        """A :meth:`span` whose duration is also added into ``times[name]``."""
        try:
            with self.span(name, **attrs) as node:
                yield node
        finally:
            times[name] = times.get(name, 0.0) + node.duration

    def event(self, name: str, **attrs: object) -> Span:
        """Record a zero-duration span at the current position."""
        now = self._now()
        node = Span(name, dict(attrs), start=now)
        node.end = now
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(node)
        return node

    def count(self, name: str, n: float = 1) -> None:
        """Bump a named counter on the current span and the run metrics."""
        if self._stack:
            counters = self._stack[-1].counters
            counters[name] = counters.get(name, 0) + n
        self.metrics.counter(name, n)

    # -- inspection -------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once every recorded span has an end time."""
        return not self._stack and all(root.closed for root in self.roots)

    @property
    def total_seconds(self) -> float:
        """Sum of root-span durations."""
        return sum(root.duration for root in self.roots)

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, depth-first."""
        out: list[Span] = []

        def _walk(span: Span) -> None:
            if span.name == name:
                out.append(span)
            for child in span.children:
                _walk(child)

        for root in self.roots:
            _walk(root)
        return out

    def to_dict(self) -> dict:
        """Whole-trace JSON-friendly form."""
        return {
            "mode": self.mode,
            "manifest": jsonify(self.manifest),
            "metrics": self.metrics.snapshot(),
            "spans": [root.to_dict() for root in self.roots],
        }

    # -- JSONL ------------------------------------------------------------
    def to_jsonl(self, path: str | Path | None = None) -> str:
        """Serialize to JSON Lines; optionally also write to ``path``.

        The file is written with :func:`repro.io.atomic_write`; a failed
        write raises :class:`~repro.exceptions.ReproError` naming the path.

        One record per line: a header carrying the mode and manifest, a
        metrics record, then every span depth-first with explicit
        ``id``/``parent`` references. Keys are sorted and ids are
        assigned deterministically, so serializing a deserialized trace
        reproduces the file bit-for-bit.
        """
        buf = io.StringIO()

        def emit(record: dict) -> None:
            buf.write(json.dumps(record, sort_keys=True))
            buf.write("\n")

        emit(
            {
                "type": "header",
                "mode": self.mode,
                "manifest": jsonify(self.manifest),
            }
        )
        emit({"type": "metrics", "data": self.metrics.snapshot()})
        next_id = 0

        def emit_span(span: Span, parent_id: int | None) -> None:
            nonlocal next_id
            span_id = next_id
            next_id += 1
            emit(
                {
                    "type": "span",
                    "id": span_id,
                    "parent": parent_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "attrs": jsonify(span.attrs),
                    "counters": jsonify(span.counters),
                }
            )
            for child in span.children:
                emit_span(child, span_id)

        for root in self.roots:
            emit_span(root, None)
        text = buf.getvalue()
        if path is not None:
            path = Path(path)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ReproError(f"cannot write {path}: {exc}") from exc
            atomic_write(path, text.encode(), ReproError)
        return text

    @classmethod
    def from_jsonl(cls, source: str | Path) -> "Trace":
        """Rebuild a trace from :meth:`to_jsonl` output (text or path)."""
        if isinstance(source, Path) or (
            "\n" not in str(source) and Path(str(source)).exists()
        ):
            text = Path(source).read_text()
        else:
            text = str(source)
        trace = cls(mode="trace")
        by_id: dict[int, Span] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "header":
                trace.mode = record.get("mode", "trace")
                trace.manifest = record.get("manifest", {})
            elif kind == "metrics":
                trace.metrics = MetricsRegistry.from_snapshot(
                    record.get("data", {})
                )
            elif kind == "span":
                span = Span(
                    record["name"], dict(record.get("attrs", {})), record["start"]
                )
                span.end = record.get("end")
                span.counters = dict(record.get("counters", {}))
                by_id[record["id"]] = span
                parent = record.get("parent")
                if parent is None:
                    trace.roots.append(span)
                else:
                    by_id[parent].children.append(span)
            else:
                raise ValidationError(f"unknown trace record type {kind!r}")
        return trace


def make_tracer(mode: str) -> Trace | NullTracer:
    """The tracer for an observability mode.

    ``"trace"``/``"trace+jsonl"`` get a fresh :class:`Trace`;
    ``"off"``/``"counters"`` share the allocation-free
    :data:`NULL_TRACER`.
    """
    if mode not in OBSERVABILITY_MODES:
        raise ValidationError(
            f"unknown observability mode {mode!r}; "
            f"choose from {OBSERVABILITY_MODES}"
        )
    if mode in ("trace", "trace+jsonl"):
        return Trace(mode=mode)
    return NULL_TRACER
