"""The kernel engine: batched-vs-scalar equivalence, caching, counters.

The contracts of the kernel engine:

* the batched kernels agree with their scalar counterparts to 1e-8 on
  arbitrary inputs (property-based), including constant and near-zero-std
  windows — and in fact bit-identically, which the scalar-reference
  regression tests pin down;
* a :class:`SeriesCache` never changes results, only reuse —
  ``IPS.discover`` yields an identical shapelet pool with caching on or
  off for a fixed seed;
* :class:`ShapeletTransform` output is bit-identical to the historical
  per-(row, shapelet) scalar loop it replaced;
* discovery attaches kernel perf counters at
  ``DiscoveryResult.extra["perf"]``;
* the persistent :class:`SpectraStore` gives a fresh cache disk hits on
  a second run, verifies checksums, and quarantines corruption;
* the batched FFT path's peak memory is bounded by its byte budget, and
  blocking over queries or series rows never changes an output bit;
* the direct and FFT branches account ``kernel_calls`` identically.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import kernels
from repro.core.config import IPSConfig
from repro.core.pipeline import IPS, IPSClassifier
from repro.core.transform import ShapeletTransform
from repro.datasets.generators import make_planted_dataset
from repro.exceptions import CacheIntegrityError, LengthError, ValidationError
from repro.kernels import (
    PerfCounters,
    SeriesCache,
    SpectraStore,
    batch_mass,
    batch_min_distance,
    batch_sliding_dot,
    distance_profile,
    mass,
    sliding_dot_product,
    subsequence_distance,
)
from repro.kernels import engine
from repro.kernels.store import content_digest, spectrum_key
from repro.types import Shapelet

_FINITE = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def _series(min_size: int, max_size: int):
    return arrays(np.float64, st.integers(min_size, max_size), elements=_FINITE)


class TestBatchedMatchesScalar:
    """Property-based 1e-8 equivalence of batch kernels vs scalar loops."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batch_sliding_dot_1d(self, data):
        series = data.draw(_series(8, 60))
        n_queries = data.draw(st.integers(1, 4))
        length = data.draw(st.integers(2, min(10, series.size)))
        queries = np.vstack(
            [data.draw(_series(length, length)) for _ in range(n_queries)]
        )
        batched = batch_sliding_dot(queries, series)
        for i in range(n_queries):
            scalar = sliding_dot_product(queries[i], series)
            np.testing.assert_allclose(batched[i], scalar, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_batch_mass_matches_mass(self, data):
        series = data.draw(_series(10, 60))
        length = data.draw(st.integers(3, min(12, series.size)))
        n_queries = data.draw(st.integers(1, 3))
        queries = np.vstack(
            [data.draw(_series(length, length)) for _ in range(n_queries)]
        )
        normalized = data.draw(st.booleans())
        batched = batch_mass(queries, series, normalized=normalized)
        for i in range(n_queries):
            scalar = mass(queries[i], series, normalized=normalized)
            np.testing.assert_allclose(batched[i], scalar, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_batch_min_distance_matches_subsequence_distance(self, data):
        n_rows = data.draw(st.integers(1, 4))
        length_x = data.draw(st.integers(10, 40))
        X = np.vstack(
            [data.draw(_series(length_x, length_x)) for _ in range(n_rows)]
        )
        n_queries = data.draw(st.integers(1, 3))
        queries = [
            data.draw(_series(2, length_x)) for _ in range(n_queries)
        ]
        batched = batch_min_distance(queries, X)
        assert batched.shape == (n_rows, n_queries)
        for j in range(n_rows):
            for i in range(n_queries):
                scalar = subsequence_distance(queries[i], X[j])
                np.testing.assert_allclose(batched[j, i], scalar, atol=1e-8)

    def test_constant_windows(self):
        """Flat queries and flat series windows hit the FLAT_STD rules."""
        series = np.concatenate([np.full(12, 3.0), np.sin(np.arange(20))])
        flat_query = np.full(5, -1.0)
        wavy_query = np.sin(np.arange(5).astype(np.float64))
        batched = batch_mass(np.vstack([flat_query, wavy_query]), series)
        for i, q in enumerate((flat_query, wavy_query)):
            np.testing.assert_array_equal(batched[i], mass(q, series))

    def test_near_zero_std_windows(self):
        """Windows with tiny-but-nonzero variance stay within 1e-8."""
        rng = np.random.default_rng(0)
        series = np.full(40, 2.0) + 1e-13 * rng.normal(size=40)
        queries = np.vstack([rng.normal(size=6) for _ in range(3)])
        batched = batch_mass(queries, series)
        for i in range(3):
            np.testing.assert_allclose(
                batched[i], mass(queries[i], series), atol=1e-8
            )

    def test_mixed_length_queries(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 30))
        queries = [rng.normal(size=n) for n in (4, 9, 4, 15)]
        batched = batch_min_distance(queries, X)
        for j in range(5):
            for i, q in enumerate(queries):
                assert batched[j, i] == subsequence_distance(q, X[j])

    def test_validation_messages_preserved(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(3, 12))
        with pytest.raises(ValidationError, match=r"2-D \(M, N\) matrix"):
            batch_min_distance([np.ones(3)], np.ones(5))
        with pytest.raises(LengthError, match="query 1 of length 20"):
            batch_min_distance([np.ones(3), np.ones(20)], X)


class TestSeriesCache:
    def test_counts_hits_and_misses(self):
        counters = PerfCounters()
        cache = SeriesCache(counters=counters)
        series = np.sin(np.arange(64).astype(np.float64))
        first = distance_profile(np.ones(8), series, cache=cache)
        hits_after_first = counters.cache_hits
        second = distance_profile(np.ones(8), series, cache=cache)
        np.testing.assert_array_equal(first, second)
        assert counters.cache_misses > 0
        assert counters.cache_hits > hits_after_first

    def test_cache_never_changes_results(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=100)
        queries = rng.normal(size=(4, 9))
        cache = SeriesCache()
        without = batch_mass(queries, series)
        with_cache = batch_mass(queries, series, cache=cache)
        again = batch_mass(queries, series, cache=cache)  # warm hits
        np.testing.assert_array_equal(without, with_cache)
        np.testing.assert_array_equal(without, again)

    def test_clear_empties_the_cache(self):
        cache = SeriesCache()
        series = np.arange(32, dtype=np.float64)
        distance_profile(np.ones(4), series, cache=cache)
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0


class TestDiscoveryIdentity:
    """Caching shares work across phases but never changes discovery."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_planted_dataset(
            n_classes=2, n_instances=10, length=60, seed=17, name="kernels"
        )

    def test_cached_and_uncached_pools_identical(self, dataset):
        base = dict(k=3, q_n=4, q_s=3, seed=0)
        cached = IPS(IPSConfig(kernel_cache=True, **base)).discover(dataset)
        uncached = IPS(IPSConfig(kernel_cache=False, **base)).discover(dataset)
        assert len(cached.shapelets) == len(uncached.shapelets)
        for a, b in zip(cached.shapelets, uncached.shapelets):
            assert a.label == b.label
            assert a.score == b.score  # bitwise, not approx
            assert a.source_instance == b.source_instance
            assert a.start == b.start
            np.testing.assert_array_equal(a.values, b.values)

    def test_perf_counters_attached(self, dataset):
        result = IPS(IPSConfig(k=2, q_n=3, q_s=2, seed=0)).discover(dataset)
        perf = result.extra["perf"]
        assert perf["kernel_calls"] > 0
        assert perf["fft_count"] > 0
        assert perf["cache_misses"] > 0
        assert 0.0 <= perf["cache_hit_rate"] <= 1.0
        assert set(perf["phase_seconds"]) >= {
            "generation",
            "pruning",
            "selection",
        }

    def test_classifier_adds_transform_phase(self, dataset):
        clf = IPSClassifier(IPSConfig(k=2, q_n=3, q_s=2, seed=0))
        clf.fit_dataset(dataset)
        perf = clf.discovery_result_.extra["perf"]
        assert "transform" in perf["phase_seconds"]


class TestShapeletTransformRegression:
    """Def.-7 output is bit-identical to the historical scalar loop."""

    def test_bit_identical_to_scalar_reference(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(7, 50))
        shapelets = [
            Shapelet(values=rng.normal(size=n), label=i % 2)
            for i, n in enumerate((5, 12, 5, 21))
        ]
        out = ShapeletTransform(shapelets).transform(X)
        # The pre-kernels implementation: an independent scalar
        # subsequence_distance per (row, shapelet) cell.
        reference = np.empty((X.shape[0], len(shapelets)))
        for j in range(X.shape[0]):
            for i, s in enumerate(shapelets):
                profile = distance_profile(s.values, X[j])
                reference[j, i] = float(profile.min() / s.values.size)
        np.testing.assert_array_equal(out, reference)

    def test_shared_cache_changes_nothing(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(5, 40))
        shapelets = [Shapelet(values=rng.normal(size=8), label=0)]
        cache = SeriesCache()
        private = ShapeletTransform(shapelets).transform(X)
        shared = ShapeletTransform(shapelets, cache=cache).transform(X)
        warm = ShapeletTransform(shapelets, cache=cache).transform(X)
        np.testing.assert_array_equal(private, shared)
        np.testing.assert_array_equal(private, warm)


def test_facade_exports():
    """The kernels facade is the single public entry point."""
    for name in (
        "mass",
        "batch_mass",
        "batch_min_distance",
        "batch_sliding_dot",
        "distance_profile",
        "subsequence_distance",
        "sliding_mean_std",
        "SeriesCache",
        "PerfCounters",
        "SpectraStore",
    ):
        assert callable(getattr(kernels, name))


@pytest.fixture()
def workload():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(12, 200))
    queries = [rng.normal(size=n) for n in (9, 17, 9, 30)]
    return X, queries


class TestSpectraStore:
    def test_roundtrip(self, tmp_path):
        store = SpectraStore(tmp_path)
        spectrum = np.fft.rfft(np.arange(32.0))
        key = spectrum_key(content_digest(np.arange(32.0)), 32, np.float64)
        store.save(key, spectrum)
        np.testing.assert_array_equal(store.load(key), spectrum)
        assert len(store) == 1

    def test_missing_key_is_none(self, tmp_path):
        assert SpectraStore(tmp_path).load("0" * 64) is None

    def test_torn_sidecar_is_a_miss(self, tmp_path):
        store = SpectraStore(tmp_path)
        key = "b" * 64
        store.save(key, np.fft.rfft(np.arange(16.0)))
        _payload_path, sidecar_path = store._paths(key)
        sidecar_path.write_text("{not json")
        assert store.load(key) is None

    def test_unusable_directory_raises(self, tmp_path):
        target = tmp_path / "plainfile"
        target.write_text("occupied")
        from repro.exceptions import SpectraStoreError

        with pytest.raises(SpectraStoreError):
            SpectraStore(target)

    def test_cross_run_hit_rate(self, tmp_path, workload):
        """The acceptance criterion: a second run hits on disk."""
        X, queries = workload
        first = PerfCounters()
        cold = batch_min_distance(
            queries, X, cache=SeriesCache(first, store=tmp_path)
        )
        assert first.spectra_disk_hits == 0
        assert first.spectra_disk_misses > 0
        second = PerfCounters()
        warm = batch_min_distance(
            queries, X, cache=SeriesCache(second, store=tmp_path)
        )
        np.testing.assert_array_equal(cold, warm)
        assert second.spectra_disk_hits > 0
        assert second.spectra_disk_misses == 0
        assert second.spectra_disk_hit_rate == 1.0
        # Fewer forward FFTs: only the query transforms remain.
        assert second.fft_count < first.fft_count
        snapshot = second.snapshot()
        assert snapshot["spectra_disk_hits"] == second.spectra_disk_hits
        assert snapshot["spectra_disk_hit_rate"] == 1.0

    def test_scipy_version_partitions_keys(self):
        digest = content_digest(np.arange(8.0))
        assert spectrum_key(digest, 16, np.float64) != spectrum_key(
            digest, 16, np.float32
        )
        assert spectrum_key(digest, 16, np.float64) != spectrum_key(
            digest, 32, np.float64
        )

    def test_cache_keys_spectra_with_float64_material(self, tmp_path):
        """Stores written before the single float64 path keep hitting."""
        x = np.sin(np.arange(50.0))
        store = SpectraStore(tmp_path)
        SeriesCache(store=store).spectrum(x, 64)
        key = spectrum_key(content_digest(x), 64, np.float64)
        np.testing.assert_array_equal(
            store.load(key), np.fft.rfft(x, 64)
        )
        assert len(store) == 1


class TestCacheIntegrity:
    def test_debug_fingerprint_detects_mutation(self):
        cache = SeriesCache(debug_fingerprint=True)
        series = np.sin(np.arange(64.0))
        distance_profile(np.ones(8), series, cache=cache)
        series[3] = 99.0
        with pytest.raises(CacheIntegrityError, match="immutable"):
            distance_profile(np.ones(8), series, cache=cache)

    def test_unmutated_arrays_pass(self):
        cache = SeriesCache(debug_fingerprint=True)
        series = np.sin(np.arange(64.0))
        first = distance_profile(np.ones(8), series, cache=cache)
        second = distance_profile(np.ones(8), series, cache=cache)
        np.testing.assert_array_equal(first, second)

    def test_default_mode_does_not_hash(self):
        cache = SeriesCache()
        series = np.sin(np.arange(64.0))
        distance_profile(np.ones(8), series, cache=cache)
        entry = cache._entries[id(series)]
        assert entry.digest is None  # hashing is opt-in


class TestCounterParity:
    """Direct and FFT branches account kernel_calls identically."""

    @pytest.mark.parametrize("series_length", [10, 64])
    def test_1d_branches_match_scalar(self, series_length):
        # length 10 -> n_out = 3 (direct branch); 64 -> n_out = 57 (FFT).
        rng = np.random.default_rng(0)
        series = rng.normal(size=series_length)
        queries = rng.normal(size=(3, 8))
        scalar = PerfCounters()
        scalar_cache = SeriesCache(scalar)
        for q in queries:
            sliding_dot_product(q, series, cache=scalar_cache)
        batched = PerfCounters()
        batch_sliding_dot(queries, series, cache=SeriesCache(batched))
        assert batched.kernel_calls == scalar.kernel_calls == 3

    @pytest.mark.parametrize("series_length", [10, 64])
    def test_2d_counts_series_times_queries(self, series_length):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, series_length))
        queries = rng.normal(size=(3, 8))
        counters = PerfCounters()
        batch_sliding_dot(queries, X, cache=SeriesCache(counters))
        assert counters.kernel_calls == 4 * 3


class TestPeakMemory:
    """The blocked FFT loop's working set obeys the byte budget.

    The predecessor sized chunks by *element count*, so the complex128
    product intermediate alone ran ~3x past the documented ceiling.
    Blocks are now sized by the bytes of the worst simultaneous
    intermediates; this pins that with a tracemalloc measurement (numpy
    array allocations are traced; psutil is unavailable here).
    """

    @staticmethod
    def _measure(monkeypatch, queries, X, budget_bytes):
        monkeypatch.setattr(engine, "_CHUNK_BYTES", budget_bytes)
        cache = SeriesCache()
        batch_sliding_dot(queries, X, cache=cache)  # warm the spectra
        tracemalloc.start()
        out = batch_sliding_dot(queries, X, cache=cache)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return out, peak

    def test_chunked_peak_stays_bounded(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(24, 512))
        queries = rng.normal(size=(16, 32))
        expected = batch_sliding_dot(queries, X)

        budget = 256 * 1024
        chunked_out, chunked_peak = self._measure(
            monkeypatch, queries, X, budget
        )
        unchunked_out, unchunked_peak = self._measure(
            monkeypatch, queries, X, 1 << 30
        )
        np.testing.assert_array_equal(chunked_out, expected)
        np.testing.assert_array_equal(unchunked_out, expected)
        # Chunking must actually bound the intermediates: everything
        # beyond the float64 output buffer fits a few chunk budgets.
        assert chunked_peak < expected.nbytes + 8 * budget
        assert chunked_peak < unchunked_peak

    def test_row_blocked_peak_stays_bounded(self, monkeypatch):
        """Many series: one query's row block alone exceeds the budget."""
        rng = np.random.default_rng(6)
        X = rng.normal(size=(256, 512))
        queries = rng.normal(size=(4, 32))
        n_fft = engine._fft_size(X.shape[1], queries.shape[1])
        budget = 256 * 1024
        # The budget holds a few dozen rows, far fewer than 256 series.
        assert X.shape[0] * engine._intermediate_bytes_per_row(n_fft) > budget
        unblocked_out, unblocked_peak = self._measure(
            monkeypatch, queries, X, 1 << 30
        )
        blocked_out, blocked_peak = self._measure(
            monkeypatch, queries, X, budget
        )
        np.testing.assert_array_equal(blocked_out, unblocked_out)
        assert blocked_peak < unblocked_out.nbytes + 8 * budget
        assert blocked_peak < unblocked_peak

    def test_intermediate_sizing_is_bytes_not_elements(self):
        n_fft = 1024
        per_row = engine._intermediate_bytes_per_row(n_fft)
        # complex product over the half spectrum + real inverse buffer.
        assert per_row == 16 * (n_fft // 2 + 1) + 8 * n_fft


class TestConfigWiring:
    def test_spectra_cache_dir_hits_across_runs(self, tmp_path):
        dataset = make_planted_dataset(
            n_classes=2, n_instances=6, length=48, seed=4, name="store"
        )
        # use_dt_cr=False routes utility scoring through the distance
        # kernels (the DT path replaces distances with hash-rank gaps and
        # would never consult the spectra store from discover alone).
        config = dict(
            k=2,
            q_n=3,
            q_s=2,
            seed=0,
            use_dt_cr=False,
            spectra_cache_dir=str(tmp_path),
        )
        first = IPS(IPSConfig(**config)).discover(dataset)
        second = IPS(IPSConfig(**config)).discover(dataset)
        assert first.extra["perf"]["spectra_disk_misses"] > 0
        assert second.extra["perf"]["spectra_disk_hits"] > 0
        for a, b in zip(first.shapelets, second.shapelets):
            assert a.score == b.score
            np.testing.assert_array_equal(a.values, b.values)
