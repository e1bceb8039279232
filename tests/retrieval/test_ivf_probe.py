"""The compiled coarse probe against its NumPy reference, bit for bit.

With the compiled kernel an IVF search is one call from the batch's BLAS
centroid product on: the C code scores each query's cells, orders them,
widens the probe and walks the cells it picked. ``ivf.probe_cells`` is the
NumPy reference of that probe and the no-compiler path. Every search here
runs under both kernels (the ``scan_kernels`` fixture) and must agree in
ids, float64 distances, cells probed and candidates scanned — on tied
centroid distances (duplicate centroids, and centroids of equal norm around
a zero query), empty cells, probes that must widen, ``nprobe`` at and past
the cell count, and batches of 1, 8, 9 and 64 queries.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import native, obs
from repro.obs import names
from repro.retrieval import IVFIndex, QuantizedIndex
from repro.retrieval.adc import RERANK_PAD, query_tables, reconstruct, search_ranges
from repro.retrieval.ivf import probe_cells

DIM = 4
CELLS = 10


def make_ivf(seed: int, mode: str, n: int = 120) -> tuple[np.random.Generator, IVFIndex]:
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(3, 16, DIM))
    codes = rng.integers(0, 16, size=(n, 3))
    index = QuantizedIndex.build(codebooks, np.zeros((n, DIM)), codes=codes)
    rows = reconstruct(index.codes, index.codebooks)
    centroids = rows[rng.integers(0, n, size=CELLS)] + rng.normal(size=(CELLS, DIM)) * 0.01
    if mode == "tied":
        # Each odd cell a copy of its even neighbour: equal scores for every
        # query (and the copy stays empty — assignment keeps the first).
        centroids[1::2] = centroids[0::2]
    elif mode == "symmetric":
        # Pairs ±c: distinct cells with bit-equal ‖c‖², so a zero query
        # (cross 0) ties each pair.
        centroids[1::2] = -centroids[0::2]
    elif mode == "empty":
        far = np.arange(CELLS) % 3 != 0
        centroids[far] = 1e4 + rng.normal(size=(int(far.sum()), DIM)) * 1e3
    return rng, IVFIndex.build(index, centroids=centroids)


def queries_for(rng, n_q: int) -> np.ndarray:
    queries = rng.normal(size=(n_q, DIM))
    queries[0] = 0.0  # every cell scored by its norm alone
    return queries


@pytest.mark.parametrize("mode", ["plain", "tied", "symmetric", "empty"])
@pytest.mark.parametrize("n_q", [1, 8, 9, 64])
def test_compiled_probe_search_is_the_numpy_probe(scan_kernels, mode, n_q):
    rng, ivf = make_ivf(n_q, mode)
    queries = queries_for(rng, n_q)

    def search():
        answers = []
        for nprobe in (1, 3, CELLS, CELLS + 5):
            for k in (1, 10, 70):  # 70 rows outgrow a few cells: widening
                for rerank in (True, False):
                    with obs.observed() as handle:
                        ids, distances = ivf.search_with_distances(
                            queries, k, nprobe=nprobe, rerank=rerank
                        )
                    registry = handle.registry
                    probed = [
                        registry.histogram(name)
                        for name in (names.IVF_CELLS_PROBED, names.IVF_CANDIDATES_SCANNED)
                    ]
                    answers += [ids, distances, np.array(
                        [(h.count, h.total, h.min, h.max) for h in probed]
                        + [(registry.counter(names.IVF_PROBES_EXPANDED).value, 0, 0, 0)]
                    )]
        return answers

    answers = scan_kernels.agree(scan_kernels.each(search))
    assert answers[0].shape == (n_q, 1) and answers[0].dtype == np.int64


def test_probe_cells_widens_by_doubling_over_empty_cells():
    """The reference against its definition: probe order, widening, ranges."""
    rng, ivf = make_ivf(3, "empty")
    queries = queries_for(rng, 9)
    c_sq = (ivf.centroids**2).sum(axis=1)
    cross = queries @ ivf.centroids.T
    sizes = ivf.cell_sizes()
    for nprobe in (1, 2, CELLS):
        for need in (1, 30, 90, len(ivf)):
            ranges, used, candidates = probe_cells(
                cross, c_sq, ivf.cell_offsets, nprobe, need
            )
            assert ranges.shape == (9, used.max(), 2)
            for q in range(9):
                order = np.argsort(c_sq - 2.0 * cross[q], kind="stable")
                want = nprobe
                while sizes[order[:want]].sum() < need and want < CELLS:
                    want = min(CELLS, 2 * want)
                assert used[q] == want
                assert candidates[q] == sizes[order[:want]].sum()
                cells = order[:want]
                assert np.array_equal(
                    ranges[q, :want], np.stack((ivf.cell_offsets[cells],
                                                ivf.cell_offsets[cells + 1]), axis=1)
                )
                assert not ranges[q, want:].any()


@pytest.mark.parametrize("mode", ["plain", "tied", "empty"])
def test_kernel_probe_outputs_equal_the_reference(mode):
    """The call's cells-probed / candidates output is the reference's, and
    its answer is ``search_ranges`` over the reference's ranges."""
    kernel = native.load()
    if kernel is None:
        pytest.skip("no compiled kernel on this machine")
    rng, ivf = make_ivf(5, mode)
    queries = queries_for(rng, 9)
    lut64, q_sq64 = query_tables(queries, ivf.codebooks64)
    cross = queries @ ivf.centroids.T
    cells = ((ivf.centroids**2).sum(axis=1), ivf.cell_offsets)
    for nprobe in (1, 4, CELLS):
        for (k, rerank), dead in itertools.product(
            ((1, True), (10, False), (70, True)), (0, 40)
        ):
            k_scan = k + RERANK_PAD if rerank else k
            # A tombstoned layout's row target: k_scan past its dead rows.
            need = min(k_scan + dead, len(ivf))
            ids, distances, probe = kernel.search_cells(
                lut64, q_sq64, ivf.layout, cross, cells, nprobe, need, ivf.ids,
                k_scan, k, rerank,
            )
            ranges, used, candidates = probe_cells(cross, *cells, nprobe, need)
            assert np.array_equal(probe, np.stack((used, candidates)))
            want = search_ranges(lut64, q_sq64, ivf.layout, ranges, k,
                                 ids=ivf.ids, rerank=rerank)
            assert ids.tobytes() == want[0].tobytes()
            assert distances.tobytes() == want[1].tobytes()


def test_kernel_rejects_probe_inputs_it_cannot_walk():
    kernel = native.load()
    if kernel is None:
        pytest.skip("no compiled kernel on this machine")
    rng, ivf = make_ivf(7, "plain")
    queries = queries_for(rng, 2)
    lut64, q_sq64 = query_tables(queries, ivf.codebooks64)
    cross = queries @ ivf.centroids.T
    cells = ((ivf.centroids**2).sum(axis=1), ivf.cell_offsets)
    for bad_cross, nprobe, bad_cells in (
        (cross, 0, cells),
        (cross, CELLS + 1, cells),
        (cross[:1], 2, cells),
        (np.asfortranarray(cross), 2, cells),
        (cross, 2, (cells[0], cells[1][:-1])),
    ):
        with pytest.raises(ValueError, match="probe inputs"):
            kernel.search_cells(lut64, q_sq64, ivf.layout, bad_cross, bad_cells,
                                nprobe, 18, ivf.ids, 18, 10, True)
