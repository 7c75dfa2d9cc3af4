"""Per-series memoization of the quantities every distance kernel needs.

Every subsequence-distance computation in the pipeline boils down to three
ingredients per series: cumulative sums (for rolling means/stds and window
sums of squares), and an FFT spectrum (for sliding dot products). Before
this module each call path recomputed them from scratch — the instance
profile recomputed a sample's cumulative sums once per candidate length,
and the shapelet transform re-ran one FFT of every series per shapelet.

:class:`SeriesCache` computes each ingredient exactly once per array and
hands it to every later phase. Derived results are bit-identical to the
historical per-call computations (same formulas, same FFT sizes), so a
cached run produces exactly the same numbers as an uncached one.

Keying and ownership
--------------------
Entries are keyed by the *identity* of the array object passed in; the
cache holds a strong reference, so an entry stays valid for the cache's
lifetime and ``id`` reuse cannot alias entries. Consequences for callers:

* pass the *same array object* to benefit from reuse (``X[i]`` creates a
  fresh view per access — hoist rows, or pass the whole 2-D matrix);
* arrays must be treated as immutable while cached (mutating one silently
  invalidates its derived quantities; ``debug_fingerprint=True`` turns
  that silent staleness into a loud
  :class:`~repro.exceptions.CacheIntegrityError`);
* scope a cache to one discovery run; it is not a process-global store —
  for *cross-run* reuse, attach a persistent
  :class:`~repro.kernels.SpectraStore` via ``store=``.

1-D and 2-D arrays are both accepted; all quantities are computed along
the last axis, so a 2-D ``(M, N)`` dataset matrix gets batched rolling
stats and spectra in one shot.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from repro.exceptions import CacheIntegrityError
from repro.kernels.perf import PerfCounters
from repro.kernels.rolling import RollingStats
from repro.kernels.store import SpectraStore, content_digest, spectrum_key


class _Entry:
    """Cached derived quantities of one array."""

    __slots__ = (
        "original",
        "array",
        "rolling",
        "mean_std",
        "ssq",
        "spectra",
        "digest",
    )

    def __init__(self, original, array: np.ndarray) -> None:
        self.original = original  # strong ref: pins id(), prevents aliasing
        self.array = array
        #: Cumulative statistics, shared with the streaming path — the
        #: batch cache is a :class:`RollingStats` fed one whole-array
        #: chunk, so batch and streaming derive from identical formulas.
        self.rolling: RollingStats | None = None
        self.mean_std: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.ssq: dict[int, np.ndarray] = {}
        #: Keyed by FFT size.
        self.spectra: dict[int, np.ndarray] = {}
        #: Content SHA-256; set lazily (persistent-store keys, debug mode).
        self.digest: str | None = None


class SeriesCache:
    """Compute-once store of per-series FFTs and rolling statistics.

    Parameters
    ----------
    counters:
        Optional :class:`~repro.kernels.PerfCounters`; hit/miss/FFT tallies
        are recorded there. A fresh instance is created when omitted so the
        cache can always report its own statistics.
    store:
        Optional persistent :class:`~repro.kernels.SpectraStore` (or a
        directory path for one). Spectrum misses consult the store before
        computing, and computed spectra are persisted — repeated runs over
        the same data skip the forward FFTs (``spectra_disk_hits`` in the
        counters).
    debug_fingerprint:
        When True, every entry access re-hashes the array's content and
        raises :class:`~repro.exceptions.CacheIntegrityError` if it
        changed since caching — the "arrays are immutable while cached"
        contract, enforced instead of assumed. O(N) per access; meant for
        tests and debugging, not production runs.
    """

    def __init__(
        self,
        counters: PerfCounters | None = None,
        *,
        store: SpectraStore | str | None = None,
        debug_fingerprint: bool = False,
    ) -> None:
        self.counters = counters if counters is not None else PerfCounters()
        if store is not None and not isinstance(store, SpectraStore):
            store = SpectraStore(store)
        self.store: SpectraStore | None = store
        self.debug_fingerprint = debug_fingerprint
        self._entries: dict[int, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (and the strong references pinning them)."""
        self._entries.clear()

    def _entry(self, arr) -> _Entry:
        entry = self._entries.get(id(arr))
        if entry is None or entry.original is not arr:
            entry = _Entry(arr, np.asarray(arr, dtype=np.float64))
            self._entries[id(arr)] = entry
            if self.debug_fingerprint:
                entry.digest = content_digest(entry.array)
        elif self.debug_fingerprint:
            digest = content_digest(entry.array)
            if entry.digest is None:
                entry.digest = digest
            elif digest != entry.digest:
                raise CacheIntegrityError(
                    "cached array content changed while cached (id "
                    f"{id(arr)}): arrays are contractually immutable for "
                    "the cache's lifetime — derived spectra and rolling "
                    "statistics would be stale"
                )
        return entry

    def _digest(self, entry: _Entry) -> str:
        if entry.digest is None:
            entry.digest = content_digest(entry.array)
        return entry.digest

    def as_float64(self, arr) -> np.ndarray:
        """The cached float64 view/copy of ``arr``."""
        return self._entry(arr).array

    def _rolling(self, entry: _Entry) -> RollingStats:
        if entry.rolling is None:
            self.counters.cache_misses += 1
            entry.rolling = RollingStats(entry.array)
        else:
            self.counters.cache_hits += 1
        return entry.rolling

    def rolling_stats(self, arr) -> RollingStats:
        """The cached :class:`RollingStats` of ``arr``.

        The same object the cumulative-sum accessors below derive from —
        handing it to a streaming consumer therefore yields quantities
        bit-identical to the batch path.
        """
        return self._rolling(self._entry(arr))

    def cumsums(self, arr) -> tuple[np.ndarray, np.ndarray]:
        """Zero-prefixed cumulative sums of values and squares (last axis).

        Returns ``(csum, csum2)`` with one leading zero per row, matching
        the layout of the historical per-call computation so every
        consumer's arithmetic (and bits) is unchanged.
        """
        return self._rolling(self._entry(arr)).cumsums()

    def sliding_mean_std(self, arr, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Rolling mean/std of every length-``window`` subsequence.

        Identical formula (and bits) to the scalar
        :func:`repro.kernels.sliding_mean_std`; negative variances from
        cancellation are clipped at zero.
        """
        entry = self._entry(arr)
        cached = entry.mean_std.get(window)
        if cached is not None:
            self.counters.cache_hits += 1
            return cached
        self.counters.cache_misses += 1
        entry.mean_std[window] = self._rolling(entry).sliding_mean_std(window)
        return entry.mean_std[window]

    def window_ssq(self, arr, window: int) -> np.ndarray:
        """Sum of squares of every length-``window`` subsequence."""
        entry = self._entry(arr)
        cached = entry.ssq.get(window)
        if cached is not None:
            self.counters.cache_hits += 1
            return cached
        self.counters.cache_misses += 1
        entry.ssq[window] = self._rolling(entry).window_ssq(window)
        return entry.ssq[window]

    def spectrum(self, arr, n_fft: int) -> np.ndarray:
        """Real FFT of ``arr`` zero-padded to ``n_fft`` (last axis).

        This is the expensive half of every sliding dot product; caching
        it means each series is transformed once per FFT size instead of
        once per query. With a persistent ``store``, misses consult the
        on-disk cache first, so the transform happens once per dataset
        *across* runs, not per run.
        """
        entry = self._entry(arr)
        cached = entry.spectra.get(n_fft)
        if cached is not None:
            self.counters.cache_hits += 1
            return cached
        self.counters.cache_misses += 1
        a = entry.array
        if self.store is not None:
            # float64 stays in the key material, so stores written by
            # earlier versions keep hitting.
            store_key = spectrum_key(self._digest(entry), n_fft, np.float64)
            loaded = self.store.load(store_key)
            if loaded is not None:
                self.counters.spectra_disk_hits += 1
                entry.spectra[n_fft] = loaded
                return loaded
            self.counters.spectra_disk_misses += 1
        self.counters.fft_count += 1 if a.ndim == 1 else int(
            np.prod(a.shape[:-1])
        )
        spectrum = sp_fft.rfft(a, n_fft, axis=-1)
        entry.spectra[n_fft] = spectrum
        if self.store is not None:
            self.store.save(store_key, spectrum)
        return spectrum
