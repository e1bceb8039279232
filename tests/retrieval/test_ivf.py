"""Tests for the IVF coarse layer over a quantized index."""

import numpy as np
import pytest

from repro.cluster.kmeans import assign_to_centroids, kmeans
from repro.data.longtail import labels_from_sizes, zipf_class_sizes
from repro.data.synthetic import make_feature_model
from repro.retrieval import ivf as ivf_module
from repro.retrieval.adc import RERANK_PAD, compact_code_dtype
from repro.retrieval.engine import QueryEngine
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.ivf import IVFIndex, default_num_cells
from repro.retrieval.metrics import recall_at_k
from repro.retrieval.search import SearchRequest


def make_clustered_index(seed=0, n_db=600, num_classes=12, m=3, k_words=16, dim=8):
    """A quantized index over clustered data (so IVF pruning has structure)."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, dim)) * 4.0
    labels = rng.integers(num_classes, size=n_db)
    database = means[labels] + rng.normal(size=(n_db, dim)) * 0.5
    residual = database.copy()
    codebooks = np.empty((m, k_words, dim))
    for j in range(m):
        result = kmeans(residual, k_words, rng=j, max_iterations=10)
        codebooks[j] = result.centroids
        residual -= result.centroids[result.assignments]
    index = QuantizedIndex.build(codebooks, database, labels=labels)
    queries = means[rng.integers(num_classes, size=20)] + rng.normal(
        size=(20, dim)
    ) * 0.5
    return index, queries


class TestDefaultNumCells:
    def test_sqrt_rule(self):
        assert default_num_cells(10_000) == 100
        assert default_num_cells(1) == 1

    def test_clamped(self):
        assert default_num_cells(0) == 1
        assert default_num_cells(10**9) == 4096


class TestBuildLayout:
    def test_cells_partition_database(self):
        index, _ = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=16)
        assert len(ivf) == len(index)
        assert ivf.cell_sizes().sum() == len(index)
        assert sorted(ivf.ids.tolist()) == list(range(len(index)))
        assert ivf.matches(index)

    def test_ids_ascending_within_cells(self):
        # Stable layout: within one cell, global ids stay ascending, which
        # is what keeps the scan's tie order identical to the serial path.
        index, _ = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=16)
        for cell in range(ivf.num_cells):
            lo, hi = ivf.cell_offsets[cell], ivf.cell_offsets[cell + 1]
            ids = ivf.ids[lo:hi]
            assert np.all(np.diff(ids) > 0) or len(ids) <= 1

    def test_centroids_override_skips_training(self):
        index, _ = make_clustered_index()
        centroids = np.zeros((3, index.dim))
        centroids[1] += 100.0
        ivf = IVFIndex.build(index, centroids=centroids)
        assert ivf.num_cells == 3
        # Everything lands in the cells near the data; the far cell is empty.
        assert ivf.cell_sizes()[1] == 0

    def test_centroids_override_shape_checked(self):
        index, _ = make_clustered_index()
        with pytest.raises(ValueError, match="centroids"):
            IVFIndex.build(index, centroids=np.zeros((3, index.dim + 1)))

    def test_num_cells_clamped_to_database(self):
        index, _ = make_clustered_index(n_db=10, k_words=8)
        ivf = IVFIndex.build(index, num_cells=50)
        assert ivf.num_cells <= 10


def _codes_out_of_range(layout):
    layout["codes_t"] = layout["codes_t"].copy()
    layout["codes_t"][0, 3] = layout["codebooks64"].shape[1]


def _ids_short(layout):
    layout["ids"] = layout["ids"][:-5]


def _norms_short(layout):
    layout["norms64"] = layout["norms64"][:-5]


def _offsets_not_monotone(layout):
    layout["cell_offsets"] = layout["cell_offsets"].copy()
    layout["cell_offsets"][[1, 2]] = layout["cell_offsets"][[2, 1]]


class TestConstructorValidation:
    """Layouts the scan could not serve are refused at construction, not
    discovered (or silently mis-answered) at query time."""

    @pytest.mark.parametrize(
        "corrupt",
        [_codes_out_of_range, _ids_short, _norms_short, _offsets_not_monotone],
    )
    def test_unservable_layout_rejected(self, corrupt):
        index, _ = make_clustered_index()
        good = IVFIndex.build(index, num_cells=8)
        assert len(set(good.cell_offsets[:3].tolist())) == 3
        layout = dict(
            centroids=good.centroids,
            cell_offsets=good.cell_offsets,
            codes_t=good.codes_t,
            ids=good.ids,
            norms64=good.norms64,
            codebooks64=good.codebooks64,
        )
        IVFIndex(**layout)  # the untouched arrays construct
        corrupt(layout)
        with pytest.raises(ValueError):
            IVFIndex(**layout)

    def test_codes_are_frozen(self):
        index, _ = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=8)
        with pytest.raises(ValueError, match="read-only"):
            ivf.codes_t[0, 0] = 0


LAYOUT_ARRAYS = ("ids", "cell_offsets", "codes_t", "norms64")


def assert_same_layout(a: IVFIndex, b: IVFIndex) -> None:
    for name in LAYOUT_ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


class TestBuildReuse:
    """A trained build reconstructs each row once when the training sample
    is the whole index, and always lays out what ``build(centroids=)`` does."""

    # n_db = 600: the sample is the whole index, or a 200-row subset of it.
    @pytest.mark.parametrize("train_sample", [600, 4096, 200])
    @pytest.mark.parametrize("chunk_size", [128, 65_536])
    def test_trained_build_equals_build_from_its_centroids(self, train_sample, chunk_size):
        index, _ = make_clustered_index()
        trained = IVFIndex.build(
            index, 16, seed=3, train_sample=train_sample, chunk_size=chunk_size,
            kmeans_iterations=5,
        )
        given = IVFIndex.build(index, centroids=trained.centroids, chunk_size=chunk_size)
        assert_same_layout(trained, given)

    @pytest.mark.parametrize("train_sample", [4096, 200])
    def test_layout_is_the_stable_sort_of_the_nearest_centroid(self, train_sample):
        # The layout spelled out from its definition, whatever the build reused.
        index, _ = make_clustered_index()
        ivf = IVFIndex.build(index, 16, seed=1, train_sample=train_sample, chunk_size=128)
        cells = assign_to_centroids(index.reconstructions(), ivf.centroids)
        order = np.argsort(cells, kind="stable")
        assert np.array_equal(ivf.ids, order)
        assert np.array_equal(ivf.cell_sizes(), np.bincount(cells, minlength=ivf.num_cells))
        assert ivf.codes_t.dtype == compact_code_dtype(index.num_codewords)
        assert np.array_equal(ivf.codes_t, index.codes[order].T)
        assert np.array_equal(ivf.norms64, index.db_sq_norms[order])

    def test_no_training_iterations_still_consistent(self):
        index, _ = make_clustered_index()
        trained = IVFIndex.build(index, 16, seed=0, kmeans_iterations=0)
        assert_same_layout(trained, IVFIndex.build(index, centroids=trained.centroids))

    @pytest.fixture
    def reconstructed(self, monkeypatch):
        """Rows handed to every ``_reconstruct_rows`` call of a build."""
        calls = []
        original = ivf_module._reconstruct_rows

        def recording(index, rows):
            out = original(index, rows)
            calls.append((rows, len(out)))
            return out

        monkeypatch.setattr(ivf_module, "_reconstruct_rows", recording)
        return calls

    def test_whole_index_sample_reconstructs_each_row_once(self, reconstructed):
        index, _ = make_clustered_index()
        IVFIndex.build(index, 16, chunk_size=128)  # n_db <= train_sample
        assert [count for _, count in reconstructed] == [len(index)]

    def test_large_index_is_never_reconstructed_whole(self, reconstructed):
        # The streaming contract a memory-mapped corpus relies on: past the
        # training sample, reconstructions exist one chunk at a time, and
        # chunks are slices (views of the codes), not index arrays.
        index, _ = make_clustered_index()
        IVFIndex.build(index, 16, train_sample=200, chunk_size=128)
        sample, *chunks = reconstructed
        assert sample[1] == 200
        assert all(isinstance(rows, slice) for rows, _ in chunks)
        assert [count for _, count in chunks] == [128, 128, 128, 128, 88]
        assert max(count for _, count in reconstructed) < len(index)


class TestSearch:
    def test_single_cell_equals_exhaustive(self):
        # num_cells=1 degenerates to an exhaustive scan: identical ranking
        # and (reranked float64) distances as the serial reference.
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=1)
        got_i, got_d = ivf.search_with_distances(queries, k=10)
        want_i, want_d = QueryEngine(index).search_with_distances(queries, k=10)
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_allclose(got_d, want_d)

    def test_all_cells_probed_equals_exhaustive(self):
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=8)
        got = ivf.search(SearchRequest(queries, k=7, nprobe=8)).indices
        want = QueryEngine(index).search(queries, k=7)
        np.testing.assert_array_equal(got, want)

    def test_exact_ties_at_full_probe_keep_walk_order(self, scan_kernels):
        """The tie contract: at full probe the distances are the flat
        engine's bit for bit, but which rows of an exact tie survive is
        walk order. Here all 64 rows tie at 1.0 (M = 1, K = 16, codebook
        I₁₆, codes 5·i mod 16, query 0): flat answers [0 1 2 3 4]; IVF
        keeps the first ``k + RERANK_PAD`` rows its probe walks and answers
        the ``k`` smallest ids of those, ordered on (distance, id)."""
        k = 5
        codes = (5 * np.arange(64) % 16)[:, None]
        index = QuantizedIndex.build(np.eye(16)[None], np.zeros((64, 16)), codes=codes)
        query = np.zeros((1, 16))

        def run():
            ivf = IVFIndex.build(index, num_cells=4, seed=0)
            flat_ids, flat_d = QueryEngine(index).search_with_distances(query, k)
            return (flat_ids, flat_d, *ivf.search_with_distances(query, k, nprobe=4))

        flat_ids, flat_d, ivf_ids, ivf_d = scan_kernels.agree(scan_kernels.each(run))
        assert flat_ids.tolist() == [[0, 1, 2, 3, 4]]
        assert ivf_d.tobytes() == flat_d.tobytes() and (flat_d == 1.0).all()
        pairs = list(zip(ivf_d[0].tolist(), ivf_ids[0].tolist()))
        assert pairs == sorted(pairs) and len(set(ivf_ids[0].tolist())) == k
        ivf = IVFIndex.build(index, num_cells=4, seed=0)
        ranges, _, _ = ivf_module.probe_cells(
            query @ ivf.centroids.T, (ivf.centroids**2).sum(axis=1), ivf.cell_offsets,
            4, k + RERANK_PAD,
        )
        walked = np.concatenate([np.arange(lo, hi) for lo, hi in ranges[0]])
        assert ivf_ids[0].tolist() == sorted(ivf.ids[walked[: k + RERANK_PAD]].tolist())[:k]

    def test_nprobe_clamped_above_num_cells(self):
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=4)
        got = ivf.search(SearchRequest(queries, k=5, nprobe=1000)).indices
        want = ivf.search(SearchRequest(queries, k=5, nprobe=4)).indices
        np.testing.assert_array_equal(got, want)

    def test_empty_cells_probe_expansion_fills_k(self):
        # Force empty cells with a fixed coarse codebook: two centroids sit
        # on the data, two far away. Probing mostly-empty cells must widen
        # until k candidates exist — the shape contract holds regardless.
        index, queries = make_clustered_index()
        centroids = np.vstack([
            np.asarray(index.reconstructions()[:2]),
            np.full((2, index.dim), 500.0),
        ])
        ivf = IVFIndex.build(index, centroids=centroids)
        assert (ivf.cell_sizes() == 0).sum() >= 1
        # Query near the far centroids: its nearest cells are empty.
        far_queries = np.full((3, index.dim), 400.0)
        got = ivf.search(SearchRequest(far_queries, k=10, nprobe=1)).indices
        assert got.shape == (3, 10)
        assert len(np.unique(got[0])) == 10

    def test_k_larger_than_database(self):
        index, queries = make_clustered_index(n_db=30)
        ivf = IVFIndex.build(index, num_cells=4)
        got = ivf.search(queries, k=50)
        assert got.shape == (len(queries), 30)
        want = QueryEngine(index).search(queries, k=50)
        np.testing.assert_array_equal(got, want)

    def test_empty_batch_and_k_zero(self):
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=4)
        assert ivf.search(queries[:0], k=5).shape == (0, 5)
        assert ivf.search(queries, k=0).shape == (len(queries), 0)

    def test_k_none_rejected(self):
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=4)
        with pytest.raises(ValueError, match="full ranking"):
            ivf.search(queries, k=None)

    def test_invalid_nprobe_rejected(self):
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=4)
        with pytest.raises(ValueError, match="nprobe"):
            ivf.search(SearchRequest(queries, k=5, nprobe=0))

    def test_query_dim_checked(self):
        index, _ = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=4)
        with pytest.raises(ValueError, match="queries"):
            ivf.search(np.zeros((2, index.dim + 3)), k=5)

    def test_recall_floor_on_longtail_profile(self):
        # A long-tail corpus (Zipf sizes) with class structure: moderate
        # nprobe must clear recall@10 >= 0.9 against the exact oracle.
        rng = np.random.default_rng(3)
        num_classes, dim = 30, 12
        model = make_feature_model(
            num_classes, dim, separation=4.5, intra_sigma=0.8, rng=rng
        )
        sizes = zipf_class_sizes(num_classes, 200, 50.0)
        db_labels = labels_from_sizes(sizes, rng=4)
        database = model.sample(db_labels, rng)
        residual = database.copy()
        codebooks = np.empty((4, 16, dim))
        for j in range(4):
            result = kmeans(residual, 16, rng=j, max_iterations=10)
            codebooks[j] = result.centroids
            residual -= result.centroids[result.assignments]
        index = QuantizedIndex.build(codebooks, database, labels=db_labels)
        queries = model.sample(rng.integers(num_classes, size=30), rng)

        oracle = QueryEngine(index).search(queries, k=10)
        ivf = IVFIndex.build(index, num_cells=32)
        got = ivf.search(SearchRequest(queries, k=10, nprobe=8)).indices
        overlap = np.mean([
            len(set(a) & set(b)) / 10 for a, b in zip(got, oracle)
        ])
        assert overlap >= 0.9
        # Label-level recall should also roughly match the oracle's.
        oracle_recall = recall_at_k(
            index.labels[oracle], index.labels[got[:, :1]].ravel(),
            index.labels, k=10,
        )
        assert np.isfinite(oracle_recall)


class TestEngineIntegration:
    def test_engine_routes_through_ivf(self):
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=16, nprobe=4)
        with QueryEngine(index, ivf=ivf) as engine:
            got = engine.search(queries, k=10)
            assert engine.last_dispatch == "ivf"
        want = ivf.search(SearchRequest(queries, k=10, nprobe=4)).indices
        np.testing.assert_array_equal(got, want)

    def test_engine_rerank_reaches_a_prebuilt_ivf(self):
        # The prebuilt layer reranks by default; the engine's rerank=False
        # must still reach its probed scans.
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=16, nprobe=4, rerank=True)
        with QueryEngine(index, rerank=False, ivf=ivf) as engine:
            got = engine.search_with_distances(queries, k=10)
        want = ivf.search_with_distances(queries, k=10, rerank=False)
        reranked = ivf.search_with_distances(queries, k=10)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert got[1].tobytes() != reranked[1].tobytes()

    def test_engine_builds_ivf_from_cell_count(self):
        index, queries = make_clustered_index()
        with QueryEngine(index, ivf=16, nprobe=16) as engine:
            assert engine.ivf.num_cells == 16
            got = engine.search(queries, k=10)
        want = QueryEngine(index).search(queries, k=10)
        np.testing.assert_array_equal(got, want)

    def test_engine_nprobe_zero_bypasses_to_exact(self):
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=16, nprobe=2)
        with QueryEngine(index, ivf=ivf) as engine:
            got = engine.search(SearchRequest(queries, k=10, nprobe=0)).indices
            assert engine.last_dispatch != "ivf"
        want = QueryEngine(index).search(queries, k=10)
        np.testing.assert_array_equal(got, want)

    def test_engine_rejects_nprobe_without_ivf(self):
        index, queries = make_clustered_index()
        with QueryEngine(index) as engine:
            with pytest.raises(ValueError, match="no IVF layer"):
                engine.search(SearchRequest(queries, k=10, nprobe=4))

    def test_engine_rejects_mismatched_ivf(self):
        index, _ = make_clustered_index(seed=0)
        other, _ = make_clustered_index(seed=1, n_db=400)
        ivf = IVFIndex.build(other, num_cells=8)
        with pytest.raises(ValueError, match="different geometry"):
            QueryEngine(index, ivf=ivf)

    def test_index_search_forwards_nprobe(self):
        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=16)
        with QueryEngine(index, ivf=ivf, nprobe=2) as engine:
            got = index.search(
                SearchRequest(queries, k=10, engine=engine, nprobe=16)
            ).indices
        want = ivf.search(SearchRequest(queries, k=10, nprobe=16)).indices
        np.testing.assert_array_equal(got, want)

    def test_index_search_rejects_nprobe_without_engine(self):
        index, queries = make_clustered_index()
        with pytest.raises(ValueError, match="nprobe requires an engine"):
            index.search(SearchRequest(queries, k=10, nprobe=4))


class TestObservability:
    def test_ivf_metrics_emitted(self):
        from repro import obs
        from repro.obs import names

        index, queries = make_clustered_index()
        with obs.observed() as handle:
            ivf = IVFIndex.build(index, num_cells=16)
            ivf.search(SearchRequest(queries, k=10, nprobe=4))
            registry = handle.registry
            assert registry.histogram(names.IVF_BUILD_TIME).count == 1
            assert registry.histogram(names.IVF_SCAN_TIME).count == 1
            assert registry.counter(names.IVF_BATCHES_TOTAL).value == 1
            cells = registry.histogram(names.IVF_CELLS_PROBED)
            assert cells.count == len(queries)

    def test_disabled_obs_is_silent(self):
        from repro import obs

        index, queries = make_clustered_index()
        ivf = IVFIndex.build(index, num_cells=8)
        ivf.search(queries, k=5)
        assert not obs.get_obs().enabled
