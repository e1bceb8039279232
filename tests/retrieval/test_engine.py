"""Tests for the sharded parallel ADC query engine."""

import numpy as np
import pytest

from repro.retrieval.adc import adc_distances, scan_codes
from repro.retrieval.engine import (
    QueryEngine,
    ShardedIndex,
    compact_code_dtype,
    merge_topk,
    shard_bounds,
    topk_tie_stable,
)
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.search import SearchRequest, rank_by_distance


def make_index(seed=0, n_db=120, m=3, k_words=16, dim=6):
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(m, k_words, dim))
    codes = rng.integers(0, k_words, size=(n_db, m))
    index = QuantizedIndex.build(
        codebooks, rng.normal(size=(n_db, dim)), codes=codes
    )
    return index, rng.normal(size=(17, dim))


def serial_topk(index, queries, k):
    distances = adc_distances(
        queries, index.codes, index.codebooks, db_sq_norms=index.db_sq_norms
    )
    return rank_by_distance(distances, k=k)


class TestCompactDtype:
    def test_thresholds(self):
        assert compact_code_dtype(2) == np.uint8
        assert compact_code_dtype(256) == np.uint8
        assert compact_code_dtype(257) == np.uint16
        assert compact_code_dtype(2**16) == np.uint16
        assert compact_code_dtype(2**16 + 1) == np.uint32

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            compact_code_dtype(0)


class TestShardBounds:
    def test_partition_is_exact_and_even(self):
        bounds = shard_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        sizes = [hi - lo for lo, hi in bounds]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_clamps_to_items(self):
        assert len(shard_bounds(2, 8)) == 2

    def test_empty_database(self):
        assert shard_bounds(0, 4) == [(0, 0)]


class TestTieStableTopk:
    def test_duplicate_distances_resolve_to_lower_index(self):
        d = np.array([[3.0, 1.0, 1.0, 1.0, 2.0]])
        idx, vals = topk_tie_stable(d, 2)
        assert idx.tolist() == [[1, 2]]
        assert vals.tolist() == [[1.0, 1.0]]

    def test_matches_stable_argsort_prefix(self):
        rng = np.random.default_rng(3)
        # Quantized distances force heavy ties.
        d = rng.integers(0, 4, size=(20, 30)).astype(np.float64)
        for k in (1, 5, 29, 30):
            idx, vals = topk_tie_stable(d, k)
            full = np.argsort(d, axis=1, kind="stable")[:, :k]
            assert np.array_equal(idx, full)
            rows = np.arange(d.shape[0])[:, None]
            assert np.array_equal(vals, d[rows, full])

    def test_k_zero(self):
        idx, vals = topk_tie_stable(np.ones((4, 6)), 0)
        assert idx.shape == vals.shape == (4, 0)


class TestMergeTopk:
    def test_merges_across_shards_with_duplicate_distances(self):
        # Two shards whose candidate lists interleave and tie: global index
        # order must break the 1.0 ties (db item 2 before 5 before 9).
        d1 = np.array([[1.0, 3.0]])
        i1 = np.array([[5, 0]])
        d2 = np.array([[1.0, 1.0, 2.0]])
        i2 = np.array([[2, 9, 7]])
        idx, vals = merge_topk([d1, d2], [i1, i2], 4)
        assert idx.tolist() == [[2, 5, 9, 7]]
        assert vals.tolist() == [[1.0, 1.0, 1.0, 2.0]]

    def test_k_wider_than_candidates(self):
        idx, vals = merge_topk([np.array([[1.0]])], [np.array([[4]])], 10)
        assert idx.tolist() == [[4]]


class TestShardedIndex:
    def test_codes_compact_and_transposed(self):
        index, _ = make_index(k_words=16)
        sharded = ShardedIndex(index, num_shards=4)
        assert sharded.codes_t.dtype == np.uint8
        assert sharded.codes_t.shape == (index.num_codebooks, len(index))
        assert np.array_equal(sharded.codes_t.T, index.codes)

    def test_fused_layout_keeps_the_bytes(self):
        # Even M and 4·K² = 64 rows: joint pair codes, two bytes a pair.
        index, _ = make_index(m=4, k_words=4)
        plain = ShardedIndex(index, num_shards=1, scan_dtype=np.float64)
        fused = ShardedIndex(index, num_shards=1)
        assert fused.fused and not plain.fused
        assert fused.codes_t.shape == (2, len(index))
        assert fused.table_width == 16 and plain.table_width == 4
        assert fused.nbytes - fused.norms.nbytes == plain.codes_t.nbytes

    @pytest.mark.parametrize("k_words", [4, 16], ids=["fused", "unfused"])
    def test_out_of_range_code_is_rejected_at_construction(self, k_words):
        # The scan gathers without a per-call range check, so a validated
        # index cannot be damaged afterwards: its code store is frozen...
        index, _ = make_index(m=4, k_words=k_words)
        with pytest.raises(ValueError, match="read-only"):
            index.codes[7, 2] = k_words
        assert not index.codes.T.flags.writeable
        # ... and a raw array that was damaged never becomes a layout.
        damaged = index.codes.copy()
        damaged[7, 2] = k_words
        with pytest.raises(ValueError, match="out of codebook range"):
            scan_codes(damaged, k_words, fuse=k_words == 4)
        with pytest.raises(ValueError, match="out of codebook range"):
            QuantizedIndex(index.codebooks, damaged, index.db_sq_norms)

    def test_out_of_range_code_is_rejected_at_worker_attach(self):
        from multiprocessing import shared_memory

        from repro.retrieval import engine as engine_module

        sharded = ShardedIndex(make_index(m=4, k_words=4)[0], num_shards=1)
        codes_shm = shared_memory.SharedMemory(create=True, size=sharded.codes_t.nbytes)
        norms_shm = shared_memory.SharedMemory(create=True, size=sharded.norms.nbytes)
        view = np.ndarray(sharded.codes_t.shape, sharded.codes_t.dtype,
                          buffer=codes_shm.buf)
        try:
            view[:] = sharded.codes_t
            args = (codes_shm.name, view.shape, view.dtype, sharded.table_width,
                    norms_shm.name, sharded.norms.dtype)
            engine_module._init_worker(*args)
            attached = engine_module._WORKER["codes_t"]
            assert np.array_equal(attached, sharded.codes_t)
            assert not attached.flags.writeable
            view[1, 5] = sharded.table_width  # corrupt the shared buffer
            with pytest.raises(ValueError, match="16-entry lookup table"):
                engine_module._init_worker(*args)
        finally:
            # Drop every array over the buffers before closing them.
            view = attached = None
            handles = engine_module._WORKER.pop("shms", ())
            engine_module._WORKER.clear()
            for shm in (*handles, codes_shm, norms_shm):
                shm.close()
            codes_shm.unlink()
            norms_shm.unlink()

    def test_matches_geometry(self):
        index, _ = make_index()
        other, _ = make_index(seed=1, n_db=50)
        sharded = ShardedIndex(index, num_shards=2)
        assert sharded.matches(index)
        assert not sharded.matches(other)


class TestEngineParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_serial_across_shards_and_dtypes(self, num_shards, dtype):
        index, queries = make_index()
        want = serial_topk(index, queries, 10)
        with QueryEngine(index, num_shards=num_shards, dtype=dtype) as engine:
            assert np.array_equal(engine.search(queries, k=10), want)

    @pytest.mark.parametrize("seed", range(5))
    def test_property_random_indexes(self, seed):
        index, queries = make_index(seed=seed, n_db=90, m=4, k_words=8)
        with QueryEngine(index, num_shards=3) as engine:
            for k in (1, 7, None):
                assert np.array_equal(
                    engine.search(queries, k=k), serial_topk(index, queries, k)
                )

    def test_wide_codebook_uses_uint16(self):
        index, queries = make_index(seed=2, n_db=80, m=2, k_words=300)
        assert ShardedIndex(index, num_shards=2).codes_t.dtype == np.uint16
        with QueryEngine(index, num_shards=2) as engine:
            assert np.array_equal(
                engine.search(queries, k=5), serial_topk(index, queries, 5)
            )

    def test_k_edges(self):
        index, queries = make_index()
        n_db = len(index)
        with QueryEngine(index, num_shards=3) as engine:
            for k in (1, n_db, n_db + 50, None):
                got = engine.search(queries, k=k)
                assert got.shape[1] == min(k, n_db) if k is not None else n_db
                assert np.array_equal(got, serial_topk(index, queries, k))

    def test_empty_query_batch(self):
        index, _ = make_index()
        with QueryEngine(index, num_shards=2) as engine:
            out = engine.search(np.empty((0, index.dim)), k=5)
            assert out.shape == (0, 5)
            assert out.dtype == np.int64

    def test_float64_distances_bitwise_equal_serial(self):
        index, queries = make_index(seed=4)
        reference = adc_distances(
            queries, index.codes, index.codebooks, db_sq_norms=index.db_sq_norms
        )
        with QueryEngine(index, num_shards=3, dtype=np.float64,
                         rerank=False) as engine:
            idx, vals = engine.search_with_distances(queries, k=len(index))
            rows = np.arange(len(queries))[:, None]
            assert np.array_equal(vals, reference[rows, idx])

    def test_rejects_bad_query_shape(self):
        index, _ = make_index()
        with QueryEngine(index) as engine:
            with pytest.raises(ValueError, match="queries"):
                engine.search(np.zeros((3, index.dim + 1)))
            with pytest.raises(ValueError, match="k must be"):
                engine.search(np.zeros((3, index.dim)), k=-1)


class TestEngineDispatch:
    def test_auto_keeps_small_batches_in_process(self):
        index, queries = make_index()
        with QueryEngine(index, workers=2, num_shards=2) as engine:
            engine.search(queries, k=5)
            assert engine.last_dispatch == "in-process"

    def test_forced_pool_matches_serial(self):
        index, queries = make_index()
        want = serial_topk(index, queries, 10)
        with QueryEngine(index, workers=2, num_shards=4,
                         parallel="force") as engine:
            got = engine.search(queries, k=10)
            assert engine.last_dispatch == "process-pool"
            assert np.array_equal(got, want)
            # Second batch reuses the warm pool.
            assert np.array_equal(engine.search(queries, k=3),
                                  serial_topk(index, queries, 3))

    def test_never_pins_in_process(self):
        index, queries = make_index()
        with QueryEngine(index, workers=2, num_shards=2, parallel="never",
                         min_parallel_codes=0) as engine:
            engine.search(queries, k=5)
            assert engine.last_dispatch == "in-process"

    def test_rejects_unknown_parallel_mode(self):
        index, _ = make_index()
        with pytest.raises(ValueError, match="parallel"):
            QueryEngine(index, parallel="sometimes")


class TestIndexDelegation:
    def test_search_with_engine_matches_serial(self):
        index, queries = make_index()
        want = index.search(queries, k=10)
        with QueryEngine(index, num_shards=3) as engine:
            got = index.search(SearchRequest(queries, k=10, engine=engine))
            assert np.array_equal(got.indices, want)

    def test_search_labels_through_engine(self):
        rng = np.random.default_rng(5)
        index, queries = make_index(seed=5)
        index.labels = rng.integers(0, 4, size=len(index))
        with QueryEngine(index, num_shards=2) as engine:
            assert np.array_equal(
                index.search_labels(SearchRequest(queries, k=5, engine=engine)),
                index.search_labels(queries, k=5),
            )

    def test_geometry_mismatch_raises(self):
        index, queries = make_index()
        other, _ = make_index(seed=1, n_db=60)
        with QueryEngine(other) as engine:
            with pytest.raises(ValueError, match="geometry"):
                index.search(SearchRequest(queries, k=5, engine=engine))


def _hang_scan_shard(args):
    """Stand-in pool worker that never answers (dead/hung worker)."""
    import time as _time

    _time.sleep(60)


def _crash_scan_shard(args):
    """Stand-in pool worker that dies mid-dispatch."""
    raise RuntimeError("simulated worker crash")


class TestEnginePoolFallback:
    def test_hung_workers_fall_back_to_serial_scan(self, monkeypatch):
        import repro.retrieval.engine as engine_mod

        index, queries = make_index()
        want = serial_topk(index, queries, 5)
        with QueryEngine(index, workers=2, num_shards=4, parallel="force",
                         task_timeout_s=0.3) as engine:
            with monkeypatch.context() as patched:
                # Fork start method: patching the parent's module function
                # before the pool is created propagates to the children.
                patched.setattr(engine_mod, "_pool_scan_shard", _hang_scan_shard)
                got = engine.search(queries, k=5)
            assert engine.last_dispatch == "in-process-fallback"
            assert np.array_equal(got, want)
            assert engine._pool is None  # the hung pool was terminated
            # The engine recovers: the next dispatch rebuilds a healthy
            # pool over the same shared-memory buffers.
            again = engine.search(queries, k=5)
            assert engine.last_dispatch == "process-pool"
            assert np.array_equal(again, want)

    def test_worker_exception_mid_dispatch_falls_back(self, monkeypatch):
        import repro.retrieval.engine as engine_mod

        index, queries = make_index(seed=2)
        want = serial_topk(index, queries, 7)
        with QueryEngine(index, workers=2, num_shards=4,
                         parallel="force") as engine:
            with monkeypatch.context() as patched:
                patched.setattr(engine_mod, "_pool_scan_shard", _crash_scan_shard)
                got = engine.search(queries, k=7)
            assert engine.last_dispatch == "in-process-fallback"
            assert np.array_equal(got, want)
            assert engine._pool is None

    def test_fallback_increments_obs_counter(self, monkeypatch):
        import repro.obs as obs
        from repro.obs import names as metric_names
        import repro.retrieval.engine as engine_mod

        index, queries = make_index(seed=3)
        handle = obs.enable_observability()
        try:
            with QueryEngine(index, workers=2, num_shards=2, parallel="force",
                             task_timeout_s=0.3) as engine:
                with monkeypatch.context() as patched:
                    patched.setattr(
                        engine_mod, "_pool_scan_shard", _crash_scan_shard
                    )
                    engine.search(queries, k=5)
            counter = handle.registry.counter(metric_names.ENGINE_POOL_FALLBACKS)
            assert counter.value == 1
        finally:
            obs.disable_observability()

    def test_task_timeout_validation(self):
        index, _ = make_index()
        with pytest.raises(ValueError, match="task_timeout_s"):
            QueryEngine(index, task_timeout_s=0.0)
        engine = QueryEngine(index, task_timeout_s=None)  # None disables it
        engine.close()


class TestRerankOverride:
    def test_per_call_override_matches_constructor_setting(self):
        index, queries = make_index(seed=4)
        with QueryEngine(index, rerank=True) as on, \
                QueryEngine(index, rerank=False) as off:
            for k in (1, 5, 20):
                got_i, got_d = on.search_with_distances(
                    queries, k=k, rerank=False
                )
                want_i, want_d = off.search_with_distances(queries, k=k)
                assert np.array_equal(got_i, want_i)
                assert np.array_equal(got_d, want_d)
                got_i, got_d = off.search_with_distances(
                    queries, k=k, rerank=True
                )
                want_i, want_d = on.search_with_distances(queries, k=k)
                assert np.array_equal(got_i, want_i)
                assert np.array_equal(got_d, want_d)

    def test_override_none_keeps_engine_default(self):
        index, queries = make_index(seed=6)
        with QueryEngine(index, rerank=True) as engine:
            base = engine.search(queries, k=10)
            got = engine.search(SearchRequest(queries, k=10, rerank=None))
            assert np.array_equal(got.indices, base)
