"""Lightweight performance counters for the kernel engine.

A :class:`PerfCounters` instance rides along with a
:class:`repro.kernels.SeriesCache` (or is used standalone) and tallies how
much distance-kernel work a discovery run performed: scalar and batched
kernel invocations, forward/inverse FFT transforms, cache hits and misses.
A run's counters belong to its tracer (``tracer.counters``, see
:mod:`repro.obs.trace`), made fresh per run in every observability mode:
``"off"`` counts too and attaches nothing, because a no-op sink costs
more per increment than the integer add. ``tracer.perf()`` puts a
:meth:`PerfCounters.snapshot` next to the stage times in
``DiscoveryResult.extra["perf"]`` so benchmarks (and ``e2ebench``'s
per-layer metrics) can report regressions without re-instrumenting call
sites. Wall time is not counted here: stages are timed by
``tracer.stage``.

Counting is deliberately cheap (integer adds); the counters never change
numerical results.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PerfCounters:
    """Tallies of kernel-engine work.

    Attributes
    ----------
    kernel_calls:
        Scalar-equivalent query sweeps: a scalar kernel invocation counts
        one, a batched call over ``Q`` queries counts ``Q`` (``M * Q``
        against an ``(M, N)`` series matrix). Totals are therefore
        comparable between a batched run and the scalar loop it replaced,
        on the direct (short-series) branches as well as the FFT ones.
    batch_calls:
        Batched (multi-query / multi-series) kernel invocations.
    fft_count:
        Individual forward/inverse FFT transforms executed (a batched
        transform over ``R`` rows counts ``R``).
    cache_hits, cache_misses:
        Derived-quantity lookups (cumulative sums, rolling stats, window
        sums of squares, spectra) served from / inserted into a
        :class:`~repro.kernels.SeriesCache`.
    spectra_disk_hits, spectra_disk_misses:
        Lookups against a persistent :class:`~repro.kernels.SpectraStore`
        (cross-run reuse); a disk hit skips the forward FFT entirely.
    """

    kernel_calls: int = 0
    batch_calls: int = 0
    fft_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    spectra_disk_hits: int = 0
    spectra_disk_misses: int = 0

    @property
    def cache_lookups(self) -> int:
        """Total derived-quantity lookups (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups served without recomputation."""
        total = self.cache_lookups
        return self.cache_hits / total if total else 0.0

    @property
    def spectra_disk_lookups(self) -> int:
        """Total persistent-store lookups (hits + misses)."""
        return self.spectra_disk_hits + self.spectra_disk_misses

    @property
    def spectra_disk_hit_rate(self) -> float:
        """Fraction of persistent-store lookups served from disk."""
        total = self.spectra_disk_lookups
        return self.spectra_disk_hits / total if total else 0.0

    def snapshot(self) -> dict:
        """A plain-dict copy, safe to stash in ``DiscoveryResult.extra``."""
        return {
            "kernel_calls": self.kernel_calls,
            "batch_calls": self.batch_calls,
            "fft_count": self.fft_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.hit_rate,
            "spectra_disk_hits": self.spectra_disk_hits,
            "spectra_disk_misses": self.spectra_disk_misses,
            "spectra_disk_hit_rate": self.spectra_disk_hit_rate,
        }

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Fold another counter set into this one (returns self)."""
        for field in fields(self):
            name = field.name
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self
