"""Tests for the mutable segmented index.

The load-bearing property: **any** interleaving of ``add`` / ``remove`` /
``compact`` leaves the index answering bit-identically to a from-scratch
:class:`QuantizedIndex` rebuilt over the surviving vectors with the same
codebooks. The parity suite drives seeded random interleavings against
that oracle; the unit tests pin the lifecycle, validation, drift gauge,
auto-compaction, and persistence behaviour around it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.errors import IncompatibleStateError
from repro.retrieval import (
    MutableIndex,
    MutationRequest,
    MutationResult,
    QuantizedIndex,
    QueryEngine,
    SearchRequest,
    Segment,
)
from repro.retrieval.persistence import (
    load_mutable_index,
    save_index,
    save_mutable_index,
)


def make_mutable(seed=0, n_base=80, dim=8, m=3, k_words=16, **kwargs):
    """(mutable index, id -> vector dict, queries, rng) over a tiny corpus."""
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(m, k_words, dim))
    base = rng.normal(size=(n_base, dim))
    index = MutableIndex.from_index(
        QuantizedIndex.build(codebooks, base), **kwargs
    )
    vectors = {i: base[i] for i in range(n_base)}
    return index, vectors, rng.normal(size=(6, dim)), rng


def oracle_search(codebooks, vectors, queries, k):
    """From-scratch rebuild over the survivors, as external ids."""
    ids = np.array(sorted(vectors), dtype=np.int64)
    if len(ids) == 0:
        return np.empty((len(queries), 0), dtype=np.int64)
    rebuilt = QuantizedIndex.build(codebooks, np.stack([vectors[i] for i in ids]))
    return ids[rebuilt.search(queries, k=k)]


def assert_parity(index, vectors, queries, k=10):
    got = index.search(queries, k=k)
    want = oracle_search(index.codebooks, vectors, queries, k)
    assert np.array_equal(got, want), (
        f"mutable search diverged from rebuild "
        f"({index.num_segments} segments, {index.tombstone_count} tombstones)"
    )


class TestMutationRequest:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="op"):
            MutationRequest(op="merge")

    def test_add_requires_vectors(self):
        with pytest.raises(ValueError, match="vectors"):
            MutationRequest(op="add")

    def test_remove_requires_ids(self):
        with pytest.raises(ValueError, match="ids"):
            MutationRequest(op="remove")

    def test_apply_dispatches(self):
        index, vectors, queries, rng = make_mutable()
        result = index.apply(
            MutationRequest(op="add", vectors=rng.normal(size=(5, 8)))
        )
        assert isinstance(result, MutationResult)
        assert result.op == "add" and result.added == 5
        result = index.apply(MutationRequest(op="remove", ids=[0, 1]))
        assert result.removed == 2 and result.tombstones == 2
        result = index.apply(MutationRequest(op="compact"))
        assert result.op == "compact"
        assert result.segments == 1 and result.tombstones == 0
        index.close()


class TestLifecycle:
    def test_from_index_adopts_rows(self):
        index, vectors, queries, _ = make_mutable()
        assert len(index) == 80 and index.n_db == 80
        assert index.generation == 1 and index.num_segments == 1
        assert index.live_ids().tolist() == list(range(80))
        assert_parity(index, vectors, queries)
        index.close()

    def test_add_assigns_monotone_ids(self):
        index, vectors, queries, rng = make_mutable()
        first = index.add(rng.normal(size=(7, 8)))
        assert first.added == 7 and first.live == 87
        assert index.live_ids()[-7:].tolist() == list(range(80, 87))
        assert index.id_bound == 87
        index.close()

    def test_add_then_search_sees_new_rows(self):
        index, vectors, queries, rng = make_mutable()
        new = rng.normal(size=(10, 8))
        index.add(new)
        for row in range(10):
            vectors[80 + row] = new[row]
        assert_parity(index, vectors, queries)
        # A query sitting on a new row finds it first.
        hit = index.search(new[:1], k=1)
        assert hit[0, 0] == 80
        index.close()

    def test_remove_hides_rows_immediately(self):
        index, vectors, queries, _ = make_mutable()
        doomed = index.search(queries[:1], k=3)[0]
        result = index.remove(doomed)
        assert result.removed == 3 and result.tombstones == 3
        for ext in doomed:
            del vectors[int(ext)]
        survivors = index.search(queries[:1], k=10)[0]
        assert not set(survivors.tolist()) & set(doomed.tolist())
        assert_parity(index, vectors, queries)
        index.close()

    def test_compact_is_invisible_to_queries(self):
        index, vectors, queries, rng = make_mutable()
        index.add(rng.normal(size=(15, 8)))
        index.remove(index.live_ids()[::7])
        before = index.search(queries, k=10)
        generation = index.generation
        result = index.compact()
        assert result.generation > generation
        assert index.num_segments == 1 and index.tombstone_count == 0
        assert np.array_equal(index.search(queries, k=10), before)
        index.close()

    def test_id_reuse_after_remove(self):
        index, vectors, queries, rng = make_mutable()
        index.remove([3])
        replacement = rng.normal(size=(1, 8))
        result = index.add(replacement, ids=[3])
        assert result.added == 1
        vectors[3] = replacement[0]
        assert_parity(index, vectors, queries)
        index.close()

    def test_empty_add_is_a_noop(self):
        index, _, _, _ = make_mutable()
        generation = index.generation
        result = index.add(np.empty((0, 8)))
        assert result.added == 0
        assert index.generation == generation
        index.close()

    def test_close_is_idempotent_and_context_managed(self, monkeypatch):
        # engine_kwargs={} asks for an engine with the default settings.
        index, _, queries, _ = make_mutable(engine_kwargs={})
        calls = []
        scan = QueryEngine.scan
        monkeypatch.setattr(
            QueryEngine, "scan", lambda *a, **kw: calls.append(1) or scan(*a, **kw)
        )
        with index:
            index.search(queries, k=5)
        assert calls, "the base was not scanned through the engine"
        index.close()

    def test_a_closed_index_refuses_searches(self):
        index, _, queries, _ = make_mutable(engine_kwargs={})
        index.close()
        with pytest.raises(RuntimeError, match="closed"):
            index.search(queries, k=3)


class TestValidation:
    def test_add_rejects_wrong_dim(self):
        index, _, _, rng = make_mutable()
        with pytest.raises(ValueError, match="vectors must be"):
            index.add(rng.normal(size=(3, 5)))
        index.close()

    def test_add_rejects_live_id_clash(self):
        index, _, _, rng = make_mutable()
        with pytest.raises(ValueError, match="live"):
            index.add(rng.normal(size=(1, 8)), ids=[0])
        index.close()

    def test_add_rejects_duplicate_ids_in_batch(self):
        index, _, _, rng = make_mutable()
        with pytest.raises(ValueError, match="duplicate"):
            index.add(rng.normal(size=(2, 8)), ids=[200, 200])
        index.close()

    def test_remove_rejects_unknown_id(self):
        index, _, _, _ = make_mutable()
        with pytest.raises(ValueError, match="not live"):
            index.remove([9999])
        index.close()

    def test_labels_required_is_enforced(self):
        rng = np.random.default_rng(5)
        codebooks = rng.normal(size=(2, 8, 6))
        base = rng.normal(size=(20, 6))
        labelled = QuantizedIndex.build(
            codebooks, base, labels=np.zeros(20, dtype=np.int64)
        )
        index = MutableIndex.from_index(labelled)
        assert index.labels_required
        with pytest.raises(ValueError, match="labels"):
            index.add(rng.normal(size=(2, 6)))
        index.add(rng.normal(size=(2, 6)), labels=[1, 1])
        index.close()

    def test_nprobe_without_ivf_raises(self):
        index, _, queries, _ = make_mutable()
        with pytest.raises(ValueError, match="IVF"):
            index.search_with_distances(queries, k=5, nprobe=4)
        with pytest.raises(ValueError, match="IVF"):
            index.serve(SearchRequest(queries=queries, k=5, nprobe=4))
        index.close()

    def test_engine_hint_rejected(self):
        index, _, queries, _ = make_mutable()
        with pytest.raises(ValueError, match="engine"):
            index.serve(SearchRequest(queries=queries, k=5, engine=object()))
        index.close()


class TestParityInterleavings:
    """Satellite 4: seeded random interleavings against the rebuild oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleaving_matches_rebuild(self, seed):
        index, vectors, queries, rng = make_mutable(
            seed=100 + seed, n_base=50
        )
        next_id = 50
        ops = rng.choice(
            ["add", "remove", "compact"], size=14, p=[0.5, 0.35, 0.15]
        )
        for op in ops:
            if op == "add":
                n = int(rng.integers(1, 12))
                new = rng.normal(size=(n, 8))
                ids = np.arange(next_id, next_id + n)
                index.add(new, ids=ids)
                for row, ext in enumerate(ids):
                    vectors[int(ext)] = new[row]
                next_id += n
            elif op == "remove" and vectors:
                live = np.array(sorted(vectors))
                n = int(rng.integers(1, max(2, len(live) // 4)))
                doomed = rng.choice(live, size=min(n, len(live)), replace=False)
                index.remove(doomed)
                for ext in doomed:
                    del vectors[int(ext)]
            elif op == "compact":
                index.compact()
            assert_parity(index, vectors, queries)
        assert len(index) == len(vectors)
        index.close()

    def test_all_rows_tombstoned(self):
        index, vectors, queries, rng = make_mutable(n_base=20)
        index.remove(index.live_ids())
        assert len(index) == 0
        result = index.search(queries, k=5)
        assert result.shape == (len(queries), 0)
        # Compacting the empty index and growing it again both work.
        compacted = index.compact()
        assert compacted.live == 0
        new = rng.normal(size=(4, 8))
        added = index.add(new)
        assert added.live == 4
        fresh = {index.id_bound - 4 + row: new[row] for row in range(4)}
        assert_parity(index, fresh, queries)
        index.close()

    def test_tombstone_heavy_segments_match_rebuild(self, scan_kernels):
        """Segments with fewer live rows than ``k + RERANK_PAD``: every row,
        dead ones included, survives the float32 preselect, so only the
        ``+inf`` float64 norms keep dead rows out of the answer. Ids and
        distances equal the rebuild's, under both kernels."""

        def run():
            index, _, queries, rng = make_mutable(seed=7, n_base=12)
            index.add(rng.normal(size=(12, 8)), ids=np.arange(100, 112))
            index.remove(np.arange(100, 110))  # 2 of 12 rows live
            index.remove(np.arange(0, 9))  # 3 of 12 base rows live
            rebuilt, ids = index.rebuild()
            answers = []
            for k in (1, 5, None):
                got_ids, got_d = index.search_with_distances(queries, k)
                rows, want_d = rebuilt.search_with_distances(queries, k)
                assert np.array_equal(got_ids, ids[rows])
                assert np.array_equal(got_d, want_d) and np.isfinite(got_d).all()
                answers += [got_ids, got_d]
            index.close()
            return answers

        scan_kernels.agree(scan_kernels.each(run))

    def test_k_exceeding_live_count_truncates(self):
        index, vectors, queries, _ = make_mutable(n_base=12)
        index.remove(index.live_ids()[:5])
        result = index.search(queries, k=50)
        assert result.shape == (len(queries), 7)
        index.close()

    @pytest.mark.parametrize(
        "engine_kwargs", [{}, {"ivf": 6, "nprobe": 6}], ids=["engine", "ivf"]
    )
    def test_engine_and_ivf_base_match_plain_scan(self, engine_kwargs, monkeypatch):
        plain, vectors, queries, rng = make_mutable(seed=9, n_base=60)
        backed, _, _, _ = make_mutable(seed=9, n_base=60, engine_kwargs=engine_kwargs)
        for index in (plain, backed):
            adds = np.random.default_rng(42).normal(size=(20, 8))
            index.add(adds)
            index.remove(index.live_ids()[::5])
        calls = []
        scan = QueryEngine.scan
        monkeypatch.setattr(
            QueryEngine, "scan", lambda *a, **kw: calls.append(1) or scan(*a, **kw)
        )
        assert np.array_equal(
            plain.search(queries, k=10), backed.search(queries, k=10)
        )
        assert calls, "the tombstoned base was not scanned through the engine"
        # Compaction rebuilds the engine layout; parity must survive it.
        backed.compact()
        plain.compact()
        assert np.array_equal(
            plain.search(queries, k=10), backed.search(queries, k=10)
        )
        if "ivf" in engine_kwargs:
            assert backed.ivf is not None
        plain.close()
        backed.close()


def probed_rows(ivf, queries, nprobe):
    """Rows of each query's ``nprobe`` nearest cells, as one sorted array."""
    scores = (ivf.centroids**2).sum(axis=1) - 2.0 * queries @ ivf.centroids.T
    cells = np.unique(np.argsort(scores, axis=1, kind="stable")[:, :nprobe])
    offsets = ivf.cell_offsets
    return np.unique(
        np.concatenate([ivf.ids[offsets[c] : offsets[c + 1]] for c in cells])
    )


class TestTombstonedEngineBase:
    """Removals from the base keep it behind its engine: its flat and IVF
    layouts carry the dead rows' ``+inf`` norms."""

    def test_nprobe_is_honoured_after_a_base_removal(self):
        index, _, queries, _ = make_mutable(
            seed=11, n_base=400, engine_kwargs={"ivf": 16, "nprobe": 1}
        )
        pruned = index.search(queries, k=10)
        full = index.search_with_distances(queries, 10, nprobe=16)[0]
        assert not np.array_equal(pruned, full), "nprobe=1 should prune here"
        # A base row neither answer holds: its removal changes neither.
        doomed = np.setdiff1d(index.live_ids(), np.concatenate([pruned, full]))[:1]
        index.remove(doomed)
        assert np.array_equal(index.search(queries, k=10), pruned)
        assert np.array_equal(
            index.search_with_distances(queries, 10, nprobe=16)[0], full
        )
        index.close()

    @pytest.mark.parametrize(
        "engine_kwargs", [{}, {"ivf": 8, "nprobe": 2}], ids=["engine", "ivf"]
    )
    def test_a_loaded_tombstoned_base_answers_as_in_memory(
        self, tmp_path, scan_kernels, engine_kwargs
    ):
        def run():
            index, _, queries, rng = make_mutable(
                seed=12, n_base=300, engine_kwargs=engine_kwargs
            )
            index.add(rng.normal(size=(20, 8)))
            index.remove(index.live_ids()[::3])  # base and added rows
            path = str(tmp_path / "tombstoned.npz")
            save_mutable_index(index, path)
            loaded = load_mutable_index(path, engine_kwargs=engine_kwargs)
            assert loaded.tombstone_count == index.tombstone_count
            rebuilt, ids = index.rebuild()
            answers = []
            probes = (None, 1, 8) if engine_kwargs else (None,)
            for nprobe, k in itertools.product(probes, (1, 10, None)):
                want = index.search_with_distances(queries, k, nprobe=nprobe)
                got = loaded.search_with_distances(queries, k, nprobe=nprobe)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                if nprobe == 8 or not engine_kwargs:
                    # Full probe: the rebuild's answer, bit for bit.
                    rows, distances = rebuilt.search_with_distances(queries, k)
                    assert np.array_equal(got[0], ids[rows])
                    assert np.array_equal(got[1], distances)
                answers += list(got)
            index.close()
            loaded.close()
            return answers

        scan_kernels.agree(scan_kernels.each(run))

    @given(
        seed=st.integers(0, 2**16),
        dead_fraction=st.floats(0.6, 1.0),
        k=st.integers(1, 40),
        nprobe=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_pruned_answers_over_mostly_dead_cells_hold_only_live_rows(
        self, scan_kernels, seed, dead_fraction, k, nprobe
    ):
        def run():
            index, _, queries, rng = make_mutable(
                seed=seed, n_base=120, engine_kwargs={"ivf": 6, "nprobe": nprobe}
            )
            index.add(rng.normal(size=(5, 8)))
            rows = probed_rows(index.ivf, queries, nprobe)
            index.remove(
                rng.choice(rows, size=int(dead_fraction * len(rows)), replace=False)
            )
            live = index.live_ids()
            ids, distances = index.search_with_distances(queries, k)
            assert ids.shape == (len(queries), min(k, len(live)))
            assert np.isfinite(distances).all()
            assert np.isin(ids, live).all()
            index.close()
            return ids, distances

        scan_kernels.agree(scan_kernels.each(run))


class TestSearchAPISurface:
    def test_serve_returns_mutable_source(self):
        index, vectors, queries, _ = make_mutable()
        result = index.serve(SearchRequest(queries=queries, k=5))
        assert result.source == "mutable"
        assert result.width == 5
        assert np.array_equal(result.indices, index.search(queries, k=5))
        index.close()

    def test_request_and_k_together_is_an_error(self):
        index, _, queries, _ = make_mutable()
        with pytest.raises(TypeError, match="SearchRequest"):
            index.search(SearchRequest(queries=queries, k=5), k=5)
        index.close()


class TestDriftGauge:
    def test_shifted_adds_flag_refresh(self):
        index, _, _, rng = make_mutable(drift_threshold=2.0)
        index.set_drift_baseline(rng.normal(size=(40, 8)))
        index.add(rng.normal(size=(10, 8)))
        assert not index.refresh_recommended
        index.add(rng.normal(size=(10, 8)) + 25.0)  # far off-distribution
        assert index.drift_ratio > 2.0
        assert index.refresh_recommended
        # The flag latches even if later batches drift back.
        index.add(rng.normal(size=(10, 8)))
        assert index.refresh_recommended
        index.close()


class TestAutoCompaction:
    def test_segment_count_trigger(self):
        index, _, _, rng = make_mutable(auto_compact_segments=2)
        index.add(rng.normal(size=(4, 8)))
        assert index.num_segments <= 2
        index.add(rng.normal(size=(4, 8)))
        index.add(rng.normal(size=(4, 8)))
        assert index.num_segments <= 2
        index.close()

    def test_dead_fraction_trigger(self):
        index, _, _, _ = make_mutable(
            n_base=40, auto_compact_dead_fraction=0.25
        )
        index.remove(index.live_ids()[:15])
        assert index.tombstone_count == 0  # compaction swept them
        assert index.num_segments == 1
        index.close()


class TestPersistence:
    def test_round_trip_preserves_everything(self, tmp_path):
        index, vectors, queries, rng = make_mutable()
        index.add(rng.normal(size=(12, 8)))
        index.remove(index.live_ids()[::6])
        path = str(tmp_path / "mutable.npz")
        save_mutable_index(index, path)
        loaded = load_mutable_index(path)
        assert loaded.generation == index.generation
        assert loaded.id_bound == index.id_bound
        assert loaded.tombstone_count == index.tombstone_count
        assert loaded.num_segments == index.num_segments
        assert np.array_equal(
            loaded.search(queries, k=10), index.search(queries, k=10)
        )
        # The loaded index is still mutable.
        result = loaded.add(rng.normal(size=(3, 8)))
        assert result.added == 3
        index.close()
        loaded.close()

    def test_wrong_kind_is_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        codebooks = rng.normal(size=(2, 8, 6))
        immutable = QuantizedIndex.build(codebooks, rng.normal(size=(10, 6)))
        path = str(tmp_path / "index.npz")
        save_index(immutable, path)
        with pytest.raises(IncompatibleStateError):
            load_mutable_index(path)


class TestSegmentInternals:
    def test_seal_sorts_by_id(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, size=(5, 2))
        norms = rng.random(5)
        ids = np.array([30, 10, 50, 20, 40])
        segment = Segment.seal(codes, norms, ids, labels=None, num_codewords=4)
        assert segment.ids.tolist() == [10, 20, 30, 40, 50]
        assert segment.n_live == 5 and segment.n_dead == 0

    def test_with_dead_masks_scan_norms(self):
        rng = np.random.default_rng(2)
        segment = Segment.seal(
            rng.integers(0, 4, size=(4, 2)),
            rng.random(4),
            np.arange(4),
            labels=None,
            num_codewords=4,
        )
        dead = segment.with_dead(np.array([1, 3]))
        assert dead.n_dead == 2 and dead.n_live == 2
        # Both the preselect's float32 norms and the rerank's float64 ones.
        for norms in (dead.layout.norms, dead.layout.norms64):
            assert np.isinf(norms[[1, 3]]).all()
            assert np.array_equal(norms[[0, 2]], segment.norms[[0, 2]].astype(norms.dtype))
        # Copy-on-write: the original segment is untouched.
        assert segment.n_dead == 0 and np.isfinite(segment.layout.norms64).all()
        # ... and the code layout is shared, not rebuilt per tombstoning.
        assert dead.codes_t is segment.codes_t is dead.layout.codes_t

    def test_scan_layout_is_sealed_once_compact_and_contiguous(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, size=(6, 3))
        ids = np.array([5, 3, 4, 0, 2, 1])
        segment = Segment.seal(codes, rng.random(6), ids, num_codewords=4)
        assert segment.codes_t.dtype == np.uint8
        assert segment.codes_t.flags.c_contiguous
        assert not segment.codes_t.flags.writeable
        assert np.array_equal(segment.codes_t.T, segment.codes)
        with pytest.raises(ValueError, match="out of codebook range"):
            Segment.seal(codes + 1, rng.random(6), ids, num_codewords=4)
