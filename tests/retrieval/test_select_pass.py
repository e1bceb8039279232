"""The compiled row-select pass of index builds against the NumPy path.

Every build that picks codes level by level — ``adc.encode_nearest`` and the
decode it hands to ``QuantizedIndex.build`` and ``MutableIndex.add``,
``DSQ.encode`` / ``assignment_scores``, k-means assignment — runs under both
kernels here (``scan_kernels``) and must come out bit for bit the same:
codes, decodes, norms, assignments, minima, centroids, inertia, iterations.
"""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

from repro import native
from repro.cluster.kmeans import assign_to_centroids, kmeans
from repro.core.dsq import DSQ
from repro.core.model import LightLT, LightLTConfig
from repro.retrieval import QuantizedIndex, adc
from repro.retrieval.mutable import MutableIndex
from tests.cluster.test_kmeans_oracle import FIXTURES

# ``repro.cluster`` re-exports the function under the module's name.
kmeans_module = importlib.import_module("repro.cluster.kmeans")


def residual_codebooks(seed: int, m: int, k: int, d: int) -> np.ndarray:
    """Codebooks whose levels shrink, as residual k-means leaves them."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, k, d)) * 0.5 ** np.arange(m)[:, None, None]


def build_outputs(features, codebooks):
    codes, decode = adc.encode_reconstruct(features, codebooks)
    index = QuantizedIndex.build(codebooks, features)
    return (
        adc.encode_nearest(features, codebooks, residual=False),
        codes, decode, index.codes, index.db_sq_norms,
    )


# (M, K, d): the F shape, d = 1 where NumPy sums the levels pairwise from
# M = 8 on, one codeword, one level.
SHAPES = [(8, 64, 32), (8, 16, 1), (9, 16, 1), (3, 8, 1), (4, 1, 8), (1, 16, 8), (2, 1, 1)]


class TestEncodeNearest:
    @pytest.mark.parametrize("m,k,d", SHAPES)
    def test_builds_agree(self, scan_kernels, m, k, d):
        codebooks = residual_codebooks(m * 100 + k + d, m, k, d)
        features = np.random.default_rng(d).normal(size=(500, d))
        results = scan_kernels.each(lambda: build_outputs(features, codebooks))
        scan_kernels.agree(results)
        codes, decode = results["numpy"][1:3]
        assert decode.tobytes() == adc.reconstruct(codes, codebooks).tobytes()

    def test_planted_ties_pick_the_first_codeword(self, scan_kernels):
        codebooks = residual_codebooks(1, 3, 12, 6)
        codebooks[:, 7] = codebooks[:, 2]  # equal scores for codewords 2 and 7
        codebooks[:, 9] = codebooks[:, 2]
        features = np.concatenate(
            [codebooks[0, 2] + 1e-3 * np.random.default_rng(2).normal(size=(50, 6)),
             np.random.default_rng(3).normal(size=(200, 6))]
        )
        codes = scan_kernels.agree(scan_kernels.each(lambda: build_outputs(features, codebooks)))[1]
        assert (codes[:50, 0] == 2).all()
        assert not np.isin(codes, (7, 9)).any()

    def test_empty_and_non_contiguous_inputs(self, scan_kernels):
        codebooks = residual_codebooks(4, 4, 16, 8)
        features = np.random.default_rng(4).normal(size=(400, 16))
        strided, books_f = features[::2, ::2], np.asfortranarray(codebooks)
        assert not strided.flags.c_contiguous and not books_f.flags.c_contiguous
        scan_kernels.agree(scan_kernels.each(lambda: build_outputs(strided, books_f)))
        for got in scan_kernels.each(lambda: build_outputs(features[:0, :8], codebooks)).values():
            assert got[1].shape == (0, 4) and got[2].shape == (0, 8)

    @pytest.mark.parametrize("rows", ["0", "1", "B-1", "B", "B+1", "3B+5", "16B+17"])
    def test_row_block_boundaries_agree(self, scan_kernels, rows):
        # The compiled path encodes in blocks of B rows (ENCODE_CELLS cells),
        # the NumPy reference all rows in one GEMM. Each row sits on the
        # bisector of two level-0 codewords, so its first code turns on the
        # last bit of two scores: a block whose GEMM summed in another order
        # would show.
        m, k, d = 8, 64, 32
        block = adc.ENCODE_CELLS // (k + 2 * d)
        n = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1,
             "3B+5": 3 * block + 5, "16B+17": 16 * block + 17}[rows]
        codebooks = residual_codebooks(9, m, k, d)
        rng = np.random.default_rng(9)
        first = rng.integers(k, size=n)
        a, b = codebooks[0, first], codebooks[0, (first + rng.integers(1, k, size=n)) % k]
        away = rng.normal(size=(n, d))
        gap = a - b
        away -= (away * gap).sum(axis=1, keepdims=True) / (gap * gap).sum(axis=1, keepdims=True) * gap
        features = (a + b) / 2 + away
        scan_kernels.agree(scan_kernels.each(lambda: [
            *adc.encode_reconstruct(features, codebooks),
            adc.encode_nearest(features, codebooks, residual=False),
        ]))

    def test_encode_scratch_is_two_blocks_not_n_rows(self):
        if native.load() is None:
            pytest.skip("the NumPy reference encodes all rows at once")
        n, m, k, d = 100_000, 8, 64, 32
        codebooks = residual_codebooks(10, m, k, d)
        features = np.random.default_rng(10).normal(size=(n, d))
        tracemalloc.start()
        try:
            codes, decode = adc.encode_reconstruct(features, codebooks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = codes.nbytes + decode.nbytes
        # An (n, K) score matrix and an (n, d) residual copy would be 77 MB.
        assert peak <= outputs + 2 * adc.ENCODE_CELLS * 8

    def test_mutable_add_and_drift_baseline_agree(self, scan_kernels):
        codebooks = residual_codebooks(5, 4, 16, 8)
        rows = np.random.default_rng(5).normal(size=(520, 8))

        def run():
            index = MutableIndex(codebooks)
            index.add(rows[:300])
            index.add(rows[300:420])
            index.remove(np.arange(0, 300, 4))
            index.compact()
            baseline = index.set_drift_baseline(rows[420:])
            segments = index._gen.segments
            return [a for s in segments for a in (s.codes_t, s.norms, s.ids)] + [baseline]

        scan_kernels.agree(scan_kernels.each(run))


class TestDSQ:
    @pytest.mark.parametrize("similarity", ["neg_l2", "dot"])
    @pytest.mark.parametrize("topology", ["residual", "independent"])
    @pytest.mark.parametrize("m,k,d", [(8, 128, 64), (8, 64, 32), (8, 16, 1), (9, 16, 1), (1, 2, 4)])
    def test_codes_and_scores_agree(self, scan_kernels, similarity, topology, m, k, d):
        dsq = DSQ(m, k, d, rng=m + k + d, similarity=similarity, topology=topology, init_std=1.0)
        embeddings = np.random.default_rng(d).normal(size=(300, d))

        def run():
            scores, codes = dsq.assignment_scores(embeddings)
            return dsq.encode(embeddings), scores, codes, dsq.encode(embeddings[:0])

        scan_kernels.agree(scan_kernels.each(run))

    def test_model_encode_and_build_index_agree(self, scan_kernels):
        model = LightLT(LightLTConfig(input_dim=16, num_classes=4, embed_dim=16, num_codebooks=4, num_codewords=32))
        features = np.random.default_rng(6).normal(size=(700, 16))[::-1]

        def run():
            index = model.build_index(features)
            return model.encode(features, batch_size=256), index.codes, index.db_sq_norms

        scan_kernels.agree(scan_kernels.each(run))


class TestKMeans:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_oracle_fixtures_agree(self, scan_kernels, name):
        make, k = FIXTURES[name]
        points = make()

        def run():
            result = kmeans(points, k, rng=3, max_iterations=25)
            minima = np.empty(len(points))
            nearest = kmeans_module._nearest(points, result.centroids, minima)
            return (result.centroids, result.assignments, result.inertia, result.iterations,
                    nearest, minima)

        scan_kernels.agree(scan_kernels.each(run))

    def test_chunked_and_non_contiguous_assignment_agree(self, scan_kernels, monkeypatch):
        rng = np.random.default_rng(7)
        points = np.asfortranarray(rng.normal(size=(193, 5)))
        centroids = rng.normal(size=(9, 5))[::-1]
        centroids[4] = centroids[1]  # a planted tie: centroid 1 wins
        points[:10] = centroids[1]
        monkeypatch.setattr(kmeans_module, "SCRATCH_CELLS", 64 * len(centroids))
        got = scan_kernels.agree(scan_kernels.each(lambda: [assign_to_centroids(points, centroids)]))[0]
        assert (got[:10] == 1).all()
        assert assign_to_centroids(points[:0], centroids).shape == (0,)


@pytest.fixture
def kernel():
    loaded = native.load()
    if loaded is None:
        pytest.skip("no compiled kernel on this machine")
    return loaded


class TestSelectRows:
    """The C entry on its own, against the NumPy operations each form replaces."""

    FORMS = {
        native.NEAREST: lambda c, r, col: (c * -2.0 + col, np.argmin),
        native.KMEANS: lambda c, r, col: (c + col, np.argmin),
        native.DSQ_L2: lambda c, r, col: (c * 2.0 - r[:, None] - col, np.argmax),
        native.DSQ_DOT: lambda c, r, col: (c.copy(), np.argmax),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_nan_rows_pick_the_first_nan(self, kernel, form):
        rng = np.random.default_rng(form)
        cross = rng.normal(size=(6, 9))
        cross[1, 4] = np.nan
        cross[2, [0, 5]] = np.nan
        cross[3] = np.nan
        cross[4, 8] = np.nan
        row, col = rng.normal(size=6), rng.normal(size=9)
        want, pick = self.FORMS[form](cross, row, col)
        codes, minima, scores = np.empty(6, np.int64), np.empty(6), np.empty((6, 9))
        kernel.select_rows(cross, form, codes, row=row, col=col, scores=scores, minima=minima)
        assert codes.tolist() == pick(want, axis=1).tolist() == [codes[0], 4, 0, 0, 8, codes[5]]
        assert scores.tobytes() == want.tobytes()
        assert minima.tobytes() == want[np.arange(6), codes].tobytes()

    @pytest.mark.parametrize("k_words", [1, 2, 3, 7, 8, 9, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_picks_match_numpy(self, kernel, form, k_words):
        # Rows drawn from a few values — exact ties, -0.0 against 0.0, ±inf —
        # plus all-equal rows and rows with a NaN first, in the middle, last.
        rng = np.random.default_rng(100 * form + k_words)
        values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, np.inf, -np.inf])
        cross = rng.choice(values, size=(64, k_words))
        cross[:8] = rng.choice(values, size=(8, 1))  # all equal
        cross[8:16] = rng.choice(values[:5], size=(8, k_words))  # finite ties only
        nan_at = {16: 0, 17: k_words // 2, 18: k_words - 1}
        for i, at in nan_at.items():
            cross[i, at] = np.nan
        cross[19, [k_words - 1, k_words // 3]] = np.nan  # the first of two
        row = rng.choice(values[:5], size=64)
        col = rng.choice(values[:5], size=k_words)
        with np.errstate(invalid="ignore"):
            want, pick = self.FORMS[form](cross, row, col)
        codes, minima, scores = np.empty(64, np.int64), np.empty(64), np.empty((64, k_words))
        kernel.select_rows(cross, form, codes, row=row, col=col, scores=scores, minima=minima)
        assert codes.tolist() == pick(want, axis=1).tolist()
        assert [codes[i] for i in nan_at] == list(nan_at.values())
        assert codes[19] == min(k_words - 1, k_words // 3)
        assert scores.tobytes() == want.tobytes()
        assert minima.tobytes() == want[np.arange(64), codes].tobytes()

    def test_mismatched_inputs_are_refused(self, kernel):
        cross, codes = np.zeros((4, 3)), np.empty(4, np.int64)
        with pytest.raises(ValueError, match="select inputs"):
            kernel.select_rows(cross, native.NEAREST, codes, col=np.zeros(2))
        with pytest.raises(ValueError, match="select inputs"):
            kernel.select_rows(cross, native.NEAREST, codes.astype(np.int32), col=np.zeros(3))
        with pytest.raises(ValueError, match="select inputs"):
            kernel.select_rows(
                cross, native.NEAREST, codes, col=np.zeros(3),
                book=np.zeros((3, 2)), target=np.zeros((4, 2))[:, ::-1],
            )


class TestNonFiniteRows:
    """A NaN or infinite row is refused wherever rows are encoded."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_encode_path_raises(self, scan_kernels, bad):
        codebooks = residual_codebooks(8, 3, 8, 4)
        rows = np.random.default_rng(8).normal(size=(20, 4))
        rows[7, 2] = bad
        model = LightLT(LightLTConfig(input_dim=4, num_classes=2, embed_dim=4, num_codebooks=3, num_codewords=8))
        calls = {
            "encode_nearest": lambda: adc.encode_nearest(rows, codebooks),
            "QuantizedIndex.build": lambda: QuantizedIndex.build(codebooks, rows),
            "MutableIndex.add": lambda: MutableIndex(codebooks).add(rows),
            "LightLT.build_index": lambda: model.build_index(rows),
            "LightLT.encode": lambda: model.encode(rows),
        }
        for name in scan_kernels.names:
            # The model's backbone meets the row first: inf - inf warns there.
            with scan_kernels.use(name), np.errstate(invalid="ignore"):
                for call, run in calls.items():
                    with pytest.raises(ValueError, match="finite"):
                        run()
                        pytest.fail(f"{call} indexed a non-finite row")
