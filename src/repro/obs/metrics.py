"""Process-local metrics: counters, gauges, and summary histograms.

A :class:`MetricsRegistry` is a plain in-process store — no exporters, no
threads. Each :class:`~repro.obs.trace.Trace` owns one (per-run metrics),
and a serving or streaming service records into the one it is handed
(``metrics=``). There is no process-wide registry.

Histograms are summary-only (count / sum / min / max): enough for the
runtime-breakdown reports without unbounded memory, and exactly
reconstructible from a snapshot so JSONL round trips stay bit-identical.

For live telemetry (the :mod:`repro.obs.telemetry` layer) the summary is
not enough — a latency SLO needs *rolling* tail quantiles, not
since-process-start extremes. :class:`WindowedHistogram` adds a bounded
sliding window: a ring buffer of the last ``capacity`` samples plus
fixed log-scale buckets maintained incrementally, so appends stay O(1)
and p50/p90/p99 queries read the bucket counts without touching the
samples. Registries grow windows on demand via
:meth:`MetricsRegistry.observe_window`.
"""

from __future__ import annotations

import math

#: Log-scale bucket geometry shared by every window: powers of two from
#: 1 microsecond up. 40 buckets reach ~5.5e5 (seconds-scale metrics are
#: covered many times over); values outside the span land in the
#: open-ended first/last buckets.
_BUCKET_LO = 1e-6
_BUCKET_FACTOR = 2.0
_BUCKET_COUNT = 40

#: Upper bounds of the shared log-scale buckets (last one is +inf).
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    _BUCKET_LO * _BUCKET_FACTOR**i for i in range(_BUCKET_COUNT)
) + (math.inf,)


def _bucket_index(value: float) -> int:
    """O(1) log-scale bucket of ``value`` (arithmetic, no search)."""
    if value < _BUCKET_LO:
        return 0
    index = int(math.log(value / _BUCKET_LO, _BUCKET_FACTOR)) + 1
    # Guard the float edge: log() of an exact power can land a hair low.
    while index < _BUCKET_COUNT and value > BUCKET_BOUNDS[index]:
        index += 1
    return min(index, _BUCKET_COUNT)


class WindowedHistogram:
    """Sliding-window histogram: ring-buffer samples + log-scale buckets.

    The last ``capacity`` observations are retained exactly (ring
    buffer); per-bucket counts are maintained incrementally on append
    and eviction, so :meth:`append` is O(1) and :meth:`quantile` is
    O(buckets). Quantiles are answered from the bucket counts: the
    returned value is the upper bound of the bucket holding the q-th
    windowed sample, so it is exact to within one bucket (a factor of
    2 with the default geometry) — tight enough for SLO burn math,
    cheap enough for the hot serving path.
    """

    __slots__ = (
        "capacity",
        "_ring",
        "_next",
        "_size",
        "_buckets",
        "_window_sum",
        "total_count",
        "total_sum",
    )

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: list[float] = [0.0] * self.capacity
        self._next = 0
        self._size = 0
        self._buckets = [0] * (_BUCKET_COUNT + 1)
        self._window_sum = 0.0
        #: Lifetime tallies (never evicted; the Prometheus counters).
        self.total_count = 0
        self.total_sum = 0.0

    def __len__(self) -> int:
        return self._size

    def append(self, value: float) -> None:
        """Record one sample, evicting the oldest once at capacity."""
        value = float(value)
        if self._size == self.capacity:
            evicted = self._ring[self._next]
            self._buckets[_bucket_index(evicted)] -= 1
            self._window_sum -= evicted
        else:
            self._size += 1
        self._ring[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self._buckets[_bucket_index(value)] += 1
        self._window_sum += value
        self.total_count += 1
        self.total_sum += value

    def values(self) -> list[float]:
        """The windowed samples, oldest first (exact; O(capacity))."""
        if self._size < self.capacity:
            return self._ring[: self._size]
        return self._ring[self._next :] + self._ring[: self._next]

    @property
    def window_sum(self) -> float:
        """Sum over the current window."""
        return self._window_sum

    @property
    def window_mean(self) -> float:
        """Mean over the current window (0.0 when empty)."""
        return self._window_sum / self._size if self._size else 0.0

    def quantile(self, q: float) -> float:
        """Windowed quantile from the bucket counts (one-bucket error).

        Returns the upper bound of the bucket containing the q-th
        sample; an empty window returns ``nan``, and a quantile landing
        in the open-ended top bucket returns the window max instead of
        ``inf`` (the max is tracked exactly enough via the samples).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._size == 0:
            return float("nan")
        rank = max(1, math.ceil(q * self._size))
        seen = 0
        for index, count in enumerate(self._buckets):
            seen += count
            if seen >= rank:
                if index >= _BUCKET_COUNT:
                    return max(self.values())
                return BUCKET_BOUNDS[index]
        return max(self.values())

    def over_threshold_fraction(self, threshold: float) -> float:
        """Share of windowed samples strictly above ``threshold``.

        Exact (scans the ring, O(capacity)); this is the SLO-burn input,
        queried at health-check cadence rather than per request.
        """
        if self._size == 0:
            return 0.0
        over = sum(1 for value in self.values() if value > threshold)
        return over / self._size

    def snapshot(self) -> dict:
        """JSON-friendly state: lifetime tallies, quantiles, and the
        raw window (bounded by ``capacity``), so :meth:`from_snapshot`
        restores an identical histogram."""
        empty = self._size == 0
        return {
            "capacity": self.capacity,
            "count": self.total_count,
            "sum": self.total_sum,
            "p50": None if empty else self.quantile(0.50),
            "p90": None if empty else self.quantile(0.90),
            "p99": None if empty else self.quantile(0.99),
            "window": self.values(),
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "WindowedHistogram":
        """Rebuild from :meth:`snapshot` output (replays the window)."""
        hist = cls(capacity=int(data.get("capacity", 512)))
        for value in data.get("window", []):
            hist.append(value)
        hist.total_count = int(data.get("count", hist.total_count))
        hist.total_sum = float(data.get("sum", hist.total_sum))
        return hist


class MetricsRegistry:
    """Counters, gauges, and summary histograms keyed by name."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_windows")

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict[str, float]] = {}
        self._windows: dict[str, WindowedHistogram] = {}

    def counter(self, name: str, n: float = 1) -> float:
        """Add ``n`` to a monotonically increasing counter."""
        value = self._counters.get(name, 0) + n
        self._counters[name] = value
        return value

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (last write wins)."""
        self._gauges[name] = value

    def window(self, name: str, capacity: int = 512) -> WindowedHistogram:
        """The named :class:`WindowedHistogram`, created on first use."""
        hist = self._windows.get(name)
        if hist is None:
            hist = self._windows[name] = WindowedHistogram(capacity)
        return hist

    def observe_window(self, name: str, value: float) -> None:
        """Record one sample into a sliding-window histogram."""
        self.window(name).append(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a summary histogram."""
        value = float(value)
        hist = self._histograms.get(name)
        if hist is None:
            self._histograms[name] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
            return
        hist["count"] += 1
        hist["sum"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)

    _PERF_KEYS = (
        "kernel_calls",
        "batch_calls",
        "fft_count",
        "cache_hits",
        "cache_misses",
        "spectra_disk_hits",
        "spectra_disk_misses",
    )

    def absorb_perf(self, perf_snapshot: dict) -> None:
        """Record a run's final ``extra["perf"]`` in this registry.

        Kernel tallies become ``kernels.*`` counters, the hit rates
        gauges, and the stage times ``phase_seconds.*`` gauges; other
        counters are left alone.
        """
        for key in self._PERF_KEYS:
            self._counters[f"kernels.{key}"] = perf_snapshot.get(key, 0)
        self.gauge(
            "kernels.cache_hit_rate", perf_snapshot.get("cache_hit_rate", 0.0)
        )
        self.gauge(
            "kernels.spectra_disk_hit_rate",
            perf_snapshot.get("spectra_disk_hit_rate", 0.0),
        )
        for phase, seconds in perf_snapshot.get("phase_seconds", {}).items():
            self.gauge(f"phase_seconds.{phase}", seconds)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (returns self)."""
        for name, value in other._counters.items():
            self.counter(name, value)
        self._gauges.update(other._gauges)
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = dict(hist)
            else:
                mine["count"] += hist["count"]
                mine["sum"] += hist["sum"]
                mine["min"] = min(mine["min"], hist["min"])
                mine["max"] = max(mine["max"], hist["max"])
        for name, window in other._windows.items():
            mine_window = self.window(name, window.capacity)
            for value in window.values():
                mine_window.append(value)
        return self

    def snapshot(self) -> dict:
        """JSON-friendly copy of the whole registry.

        Histogram means are derived (``sum / count``) so a registry
        restored via :meth:`from_snapshot` snapshots identically. The
        ``windows`` key appears only when sliding windows exist, keeping
        pre-telemetry trace JSONL byte-stable.
        """
        snap = {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: {**hist, "mean": hist["sum"] / hist["count"]}
                for name, hist in self._histograms.items()
            },
        }
        if self._windows:
            snap["windows"] = {
                name: window.snapshot()
                for name, window in self._windows.items()
            }
        return snap

    @classmethod
    def from_snapshot(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        registry._counters = dict(data.get("counters", {}))
        registry._gauges = dict(data.get("gauges", {}))
        registry._histograms = {
            name: {key: hist[key] for key in ("count", "sum", "min", "max")}
            for name, hist in data.get("histograms", {}).items()
        }
        registry._windows = {
            name: WindowedHistogram.from_snapshot(window)
            for name, window in data.get("windows", {}).items()
        }
        return registry
