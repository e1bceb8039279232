"""Bit-exactness and bookkeeping of cross-query LUT reuse.

The contract under test (see ``repro/retrieval/lut_cache.py``): a lookup
table assembled from cached rows plus a subset einsum over the miss rows
is *bitwise* identical to a fresh full-batch build, so every downstream
consumer — the engine's float32 scan, the IVF uint8 quantized tables,
the float64 rerank — returns identical distances whether or not any row
came from the cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval.adc import build_lookup_tables
from repro.retrieval.engine import QueryEngine
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.ivf import IVFIndex
from repro.retrieval.lut_cache import DEFAULT_CAPACITY, LUTCache


def make_index(seed=0, n_db=300, m=3, k_words=16, dim=8):
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(m, k_words, dim))
    return QuantizedIndex.build(codebooks, rng.normal(size=(n_db, dim))), rng


class TestTableParity:
    """LUTCache.tables vs the call sites' fresh einsum, bit for bit."""

    @given(
        seed=st.integers(0, 2**16),
        n_warm=st.integers(0, 6),
        n_q=st.integers(0, 8),
        n_dup=st.integers(0, 3),
        dim=st.integers(2, 6),
        m=st.integers(1, 3),
        k_words=st.integers(4, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_hit_miss_batches_bit_identical(
        self, seed, n_warm, n_q, n_dup, dim, m, k_words
    ):
        """Any mix of cached rows, fresh rows, and in-batch duplicates
        assembles the exact table a cold full-batch einsum builds."""
        rng = np.random.default_rng(seed)
        codebooks = rng.normal(size=(m, k_words, dim))
        warm = rng.normal(size=(n_warm, dim))
        fresh = rng.normal(size=(n_q, dim))
        cache = LUTCache(capacity=64)
        if n_warm:
            cache.tables(warm, codebooks)
        # Batch = some previously-seen rows + new rows + in-batch repeats,
        # in a seeded shuffle so hits and misses interleave.
        parts = [fresh]
        if n_warm:
            parts.append(warm[rng.integers(0, n_warm, size=min(3, n_warm))])
        if n_q and n_dup:
            parts.append(fresh[rng.integers(0, n_q, size=n_dup)])
        batch = np.concatenate(parts) if parts else fresh
        batch = batch[rng.permutation(len(batch))]
        got = cache.tables(batch, codebooks)
        want = build_lookup_tables(batch, codebooks)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)
        # And a full re-run (all hits) is still the same table.
        assert np.array_equal(cache.tables(batch, codebooks), want)

    def test_empty_batch(self):
        cache = LUTCache()
        codebooks = np.random.default_rng(0).normal(size=(2, 4, 3))
        out = cache.tables(np.empty((0, 3)), codebooks)
        assert out.shape == (0, 2, 4)
        assert cache.hits == cache.misses == 0
        assert len(cache) == 0

    def test_single_query_repeat_hits(self):
        rng = np.random.default_rng(1)
        codebooks = rng.normal(size=(2, 4, 3))
        query = rng.normal(size=(1, 3))
        cache = LUTCache()
        first = cache.tables(query, codebooks)
        assert (cache.hits, cache.misses) == (0, 1)
        second = cache.tables(query, codebooks)
        assert (cache.hits, cache.misses) == (1, 1)
        assert np.array_equal(first, second)
        assert np.array_equal(first, build_lookup_tables(query, codebooks))

    def test_in_batch_duplicates_counted_as_hits(self):
        rng = np.random.default_rng(2)
        codebooks = rng.normal(size=(2, 4, 3))
        row = rng.normal(size=3)
        batch = np.stack([row, row, row])
        cache = LUTCache()
        out = cache.tables(batch, codebooks)
        assert (cache.hits, cache.misses) == (2, 1)
        assert np.array_equal(out, build_lookup_tables(batch, codebooks))

    def test_oversized_batch_bypasses_cache(self):
        rng = np.random.default_rng(3)
        codebooks = rng.normal(size=(2, 4, 3))
        batch = rng.normal(size=(9, 3))
        cache = LUTCache(capacity=8)
        out = cache.tables(batch, codebooks)
        assert cache.hits == cache.misses == 0 and len(cache) == 0
        assert np.array_equal(out, build_lookup_tables(batch, codebooks))

    def test_new_codebook_array_invalidates(self):
        rng = np.random.default_rng(4)
        query = rng.normal(size=(1, 3))
        books_a = rng.normal(size=(2, 4, 3))
        cache = LUTCache()
        cache.tables(query, books_a)
        books_b = books_a.copy()  # same values, new identity -> stale rows
        out = cache.tables(query, books_b)
        assert cache.misses == 2 and cache.hits == 0
        assert np.array_equal(out, build_lookup_tables(query, books_b))

    def test_lru_eviction_keeps_capacity(self):
        rng = np.random.default_rng(5)
        codebooks = rng.normal(size=(2, 4, 3))
        cache = LUTCache(capacity=4)
        cache.tables(rng.normal(size=(3, 3)), codebooks)
        cache.tables(rng.normal(size=(3, 3)), codebooks)
        assert len(cache) == 4

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            LUTCache(capacity=0)
        assert DEFAULT_CAPACITY >= 1


class TestEngineParity:
    """The float32 engine scan with reuse vs a cache-disabled engine."""

    def test_cold_warm_and_overlapping_batches(self):
        index, rng = make_index()
        queries = rng.normal(size=(12, index.dim))
        with QueryEngine(index, parallel="never") as cached, QueryEngine(
            index, parallel="never", lut_cache=None
        ) as fresh:
            assert cached.lut_cache is not None and fresh.lut_cache is None
            for batch in (
                queries[:8],  # cold: all misses
                queries[:8],  # warm: all hits
                queries[4:],  # overlap: 4 hits + 4 misses
                queries[:1],  # single-query edge
                queries[:0],  # empty-batch edge
            ):
                got_i, got_d = cached.search_with_distances(batch, k=10)
                want_i, want_d = fresh.search_with_distances(batch, k=10)
                assert np.array_equal(got_i, want_i)
                assert np.array_equal(got_d, want_d)
            assert cached.lut_cache.hits >= 12
            assert cached.lut_cache.misses == 12  # 8 cold + 4 overlap

    def test_rerank_path_unaffected(self):
        index, rng = make_index(seed=7)
        queries = rng.normal(size=(6, index.dim))
        with QueryEngine(index, parallel="never", rerank=True) as cached:
            first = cached.search_with_distances(queries, k=5)
            second = cached.search_with_distances(queries, k=5)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestIVFParity:
    """IVF probe scans with reuse."""

    def test_cached_matches_disabled(self):
        index, rng = make_index(seed=11)
        cached = IVFIndex.build(index, num_cells=8)
        fresh = IVFIndex.build(index, num_cells=8)
        fresh.lut_cache = None
        assert cached.lut_cache is not None
        queries = rng.normal(size=(10, index.dim))
        for batch in (queries, queries, queries[:1], queries[:0]):
            got_i, got_d = cached.search_with_distances(batch, k=5, nprobe=4)
            want_i, want_d = fresh.search_with_distances(batch, k=5, nprobe=4)
            assert np.array_equal(got_i, want_i)
            assert np.array_equal(got_d, want_d)
        assert cached.lut_cache.hits >= len(queries)
        assert cached.lut_cache.misses == len(queries)


class TestConcurrency:
    """Replicas share one cache and scan on executor threads."""

    def test_concurrent_single_row_batches_keep_the_lru_consistent(self):
        """Four threads thrash a two-row cache with single-row batches.

        Unlocked, one thread's ``popitem`` lands between another's
        ``get`` and ``move_to_end`` and ``tables`` raises ``KeyError`` —
        in service, a failed scan and a breaker failure on a healthy
        replica. Every table must also still be the fresh build, and no
        lookup may go uncounted.
        """
        import sys
        import threading
        import time
        from collections import OrderedDict

        class YieldingRows(OrderedDict):
            """Hands the interpreter over right after a lookup: the window
            the race needs, which a bare stress run hits once in ~10^4."""

            def get(self, key, default=None):
                value = super().get(key, default)
                time.sleep(0)
                return value

        rng = np.random.default_rng(3)
        codebooks = rng.normal(size=(2, 4, 3))
        pool = rng.normal(size=(12, 3))
        want = build_lookup_tables(pool, codebooks)
        cache = LUTCache(capacity=2)
        cache._rows = YieldingRows()
        rounds = 1500
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for step in range(rounds):
                    row = (offset + 5 * step) % len(pool)
                    got = cache.tables(pool[row : row + 1], codebooks)
                    if not np.array_equal(got[0], want[row]):
                        raise AssertionError(f"row {row} differs from a fresh build")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60.0
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= cache.capacity
        assert cache.hits + cache.misses == len(threads) * rounds
