"""The compiled row decode and cluster-sum pass against their NumPy paths.

``adc.reconstruct`` (the decode every build, IVF sample, distillation target
and cost model reads) and ``kmeans._cluster_sums`` (k-means' update step)
run under both kernels here (``scan_kernels``) and must come out bit for bit
the same — and the same as the definitional sums: a decoded row is
``((0.0 + C_0[c_0]) + C_1[c_1]) + …``, a cluster's sum adds each chunk's
rows in row order from ``+0.0``.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro import native
from repro.cluster.kmeans import kmeans
from repro.retrieval import adc

# ``repro.cluster`` re-exports the function under the module's name.
kmeans_module = importlib.import_module("repro.cluster.kmeans")


@pytest.fixture
def kernel():
    loaded = native.load()
    if loaded is None:
        pytest.skip("no compiled kernel on this machine")
    return loaded


def spread(rng, shape):
    """Normal values over sixteen decades: any reordering of a sum shows."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


def level_sums(codes, codebooks):
    """The definitional decode: ``0.0 + C_0[c_0]``, then each level in turn."""
    out = np.zeros((len(codes), codebooks.shape[2]))
    for j in range(codebooks.shape[0]):
        out = out + codebooks[j][codes[:, j]]
    return out


class TestDecode:
    @pytest.mark.parametrize("rows", ["0", "1", "B-1", "B+1"])
    @pytest.mark.parametrize("d", [1, 32, 64])
    @pytest.mark.parametrize("m", [1, 8, 9])
    @pytest.mark.parametrize("k", [200, 300], ids=["uint8", "uint16"])
    def test_decode_matches_numpy(self, scan_kernels, k, m, d, rows):
        # B is the NumPy path's gather chunk: its boundary must not show.
        block = adc.RECONSTRUCT_CELLS // (m * d)
        n = {"0": 0, "1": 1, "B-1": block - 1, "B+1": block + 1}[rows]
        rng = np.random.default_rng(k + 10 * m + d)
        codebooks = spread(rng, (m, k, d))
        codes = adc.validate_codes(rng.integers(k, size=(n, m)), m, k)
        assert codes.dtype == (np.uint8 if k <= 256 else np.uint16)
        got = scan_kernels.agree(scan_kernels.each(lambda: [adc.reconstruct(codes, codebooks)]))[0]
        if d > 1:  # at d = 1 NumPy sums the levels pairwise from M = 8 on
            assert got.tobytes() == level_sums(codes, codebooks).tobytes()

    def test_non_contiguous_codes_and_codebooks(self, scan_kernels):
        rng = np.random.default_rng(1)
        codebooks = spread(rng, (6, 40, 16))
        codes = rng.integers(40, size=(301, 12)).astype(np.uint8)
        views = [codes[::-2, ::2], codes[:, 1::2], np.asfortranarray(codes[:, :6]),
                 codes[:, :6].astype(np.int64)[::3]]
        for view in views:
            got = scan_kernels.agree(scan_kernels.each(lambda: [
                adc.reconstruct(view, codebooks),
                adc.reconstruct(view, np.asfortranarray(codebooks)),
            ]))
            assert got[0].tobytes() == level_sums(np.asarray(view), codebooks).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_negative_zero_codewords_decode_to_positive_zero(self, scan_kernels, m):
        # NumPy's reduce starts from +0.0, so an all -0.0 row decodes to +0.0;
        # a decode that copied level 0 instead would keep -0.0.
        codebooks = spread(np.random.default_rng(m), (m, 4, 8))
        codebooks[:, 0] = -0.0
        codebooks[0, 1, :4] = -0.0
        codes = np.zeros((5, m), dtype=np.uint8)
        codes[3:, 0] = 1
        got = scan_kernels.agree(scan_kernels.each(lambda: [adc.reconstruct(codes, codebooks)]))[0]
        assert not np.signbit(got[:3]).any()
        assert got.tobytes() == level_sums(codes, codebooks).tobytes()

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_range_codes_are_refused_before_the_c_code(self, scan_kernels, monkeypatch, bad):
        codebooks = spread(np.random.default_rng(2), (3, 16, 8))
        codes = np.random.default_rng(2).integers(16, size=(20, 3))
        codes[7, 1] = bad
        loaded = native.load()
        if loaded is not None:
            def refuse(*args):
                raise AssertionError("the decode reached the C code")

            for dtype in list(loaded._decodes):
                monkeypatch.setitem(loaded._decodes, dtype, refuse)
        for name in scan_kernels.names:
            with scan_kernels.use(name), pytest.raises(ValueError, match="out of codebook range"):
                adc.reconstruct(codes, codebooks)

    def test_kernel_refuses_what_it_cannot_read(self, kernel):
        books = spread(np.random.default_rng(3), (2, 4, 3))
        codes = np.random.default_rng(3).integers(4, size=(50, 2)).astype(np.uint16)
        # A view at an odd address is copied, not read in half elements.
        odd = np.frombuffer(bytes(1) + codes.tobytes(), np.uint16, offset=1).reshape(50, 2)
        assert not odd.flags.aligned
        assert kernel.decode(odd, books).tobytes() == level_sums(codes, books).tobytes()
        with pytest.raises(ValueError, match="out of codebook range"):
            kernel.decode(np.array([[0, 4]], dtype=np.uint8), books)
        with pytest.raises(ValueError, match="decode inputs"):
            kernel.decode(np.zeros((1, 3), dtype=np.uint8), books)
        with pytest.raises(ValueError, match="decode inputs"):
            kernel.decode(np.zeros((1, 2), dtype=np.uint8), np.asfortranarray(books))
        assert kernel.decode(np.zeros((0, 2), dtype=np.uint8), books).shape == (0, 3)
        empty = kernel.decode(np.zeros((4, 0), dtype=np.uint8), np.zeros((0, 4, 3)))
        assert empty.tobytes() == np.zeros((4, 3)).tobytes()  # no levels: +0.0


class TestClusterSums:
    def chunked(self, monkeypatch, dim: int) -> int:
        """Shrink the row chunk to 64 rows; return it."""
        monkeypatch.setattr(kmeans_module, "SCRATCH_CELLS", 64 * dim)
        return kmeans_module._chunk_rows(dim)

    @pytest.mark.parametrize("rows", ["B-1", "B", "B+1", "2B+5"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 32, 64])
    def test_sums_match_numpy_around_the_row_chunk(self, scan_kernels, monkeypatch, dim, rows):
        block = self.chunked(monkeypatch, dim)
        n = {"B-1": block - 1, "B": block, "B+1": block + 1, "2B+5": 2 * block + 5}[rows]
        rng = np.random.default_rng(dim * 7 + n)
        points = spread(rng, (n, dim))
        assignments = rng.integers(5, size=n)  # cluster 5 stays empty
        sums, counts = scan_kernels.agree(scan_kernels.each(
            lambda: kmeans_module._cluster_sums(points, assignments, 6)
        ))
        assert counts.tolist() == np.bincount(assignments, minlength=6).tolist()
        assert not sums[5].any()
        if dim > 1:  # each chunk's rows in row order from +0.0, then into sums
            want = np.zeros((6, dim))
            for lo in range(0, n, block):
                part = np.zeros((6, dim))
                for i in range(lo, min(lo + block, n)):
                    part[assignments[i]] = part[assignments[i]] + points[i]
                want += part
            assert sums.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_clusters", [1, 40, (1 << 16) + 3])
    def test_one_many_and_wide_cluster_counts(self, scan_kernels, monkeypatch, num_clusters):
        # Past 2**16 clusters the NumPy path sorts int64 keys, not uint16.
        self.chunked(monkeypatch, 8)
        rng = np.random.default_rng(num_clusters)
        points = spread(rng, (300, 8))
        assignments = rng.integers(num_clusters, size=300)
        assignments[:20] = num_clusters - 1
        scan_kernels.agree(scan_kernels.each(
            lambda: kmeans_module._cluster_sums(points, assignments, num_clusters)
        ))

    def test_signed_zeros_non_finite_and_strided_rows(self, scan_kernels, monkeypatch):
        self.chunked(monkeypatch, 4)
        rng = np.random.default_rng(3)
        points = spread(rng, (400, 8))
        points[:, 0] = -0.0  # a column of -0.0: its sums are +0.0
        points[10, 1], points[11, 2], points[12, 3] = np.nan, np.inf, -np.inf
        assignments = rng.integers(7, size=200)
        views = [points[::2, :4], np.asfortranarray(points[1::2, 4:]), points[::-2, 2:6]]
        results = [
            scan_kernels.agree(scan_kernels.each(
                lambda: kmeans_module._cluster_sums(view, assignments, 7)
            ))
            for view in views
        ]
        sums, counts = results[0]
        assert not np.signbit(sums[:, 0]).any()
        assert np.isnan(sums[assignments[5], 1]) and counts.sum() == 200

    def test_kmeans_across_chunks_agrees(self, scan_kernels, monkeypatch):
        block = self.chunked(monkeypatch, 16)
        rng = np.random.default_rng(4)
        means = rng.normal(size=(12, 16)) * 4.0
        points = means[rng.integers(12, size=2 * block + 5)] + rng.normal(size=(2 * block + 5, 16))

        def run():
            result = kmeans(points, 9, rng=5, max_iterations=8, tolerance=0.0)
            return result.centroids, result.assignments, result.inertia, result.iterations

        scan_kernels.agree(scan_kernels.each(run))

    def test_kernel_refuses_what_it_cannot_read(self, kernel):
        points, assignments = np.zeros((4, 3)), np.zeros(4, dtype=np.int64)
        for bad in (-1, 3):
            assignments[2] = bad
            with pytest.raises(ValueError, match="outside"):
                kernel.cluster_sums(points, assignments, 3, 64)
        with pytest.raises(ValueError, match="cluster-sum inputs"):
            kernel.cluster_sums(points, assignments.astype(np.int32), 3, 64)
        with pytest.raises(ValueError, match="cluster-sum inputs"):
            kernel.cluster_sums(points.astype(np.float32), np.zeros(4, dtype=np.int64), 3, 64)
        with pytest.raises(ValueError, match="cluster-sum inputs"):
            kernel.cluster_sums(points, np.zeros(3, dtype=np.int64), 3, 64)
