"""The IVF probe scan against its definition, as a property.

``IVFIndex`` hands the shared scan kernel, per query, the probed cells'
column ranges in probe order, and gets layout positions back. The oracle
below never touches that layout: it ranks centroids, widens the probe set
by the documented rule, collects the database rows whose nearest centroid
is a probed cell, and sorts the reference ``adc_distances`` of those rows
on (distance, id). Layouts are small, with far-away centroids (empty cells)
and centroids sitting on single rows (thin cells), so probe widening
happens at most ``nprobe``; batches straddle ``QUERY_CHUNK``; codes are
uint8 and, at K = 300, uint16. Every search runs under both scan kernels
(the ``scan_kernels`` fixture), whose answers must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster.kmeans import assign_to_centroids
from repro.obs import names
from repro.retrieval import IVFIndex, QuantizedIndex, QueryEngine
from repro.retrieval.adc import RERANK_PAD, adc_distances, reconstruct

DIM = 5


def make_layout(seed, n, m, k_words, num_cells, empty_fraction):
    """An index, coarse centroids with empty/thin cells, and row → cell."""
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(m, k_words, DIM))
    codes = rng.integers(0, k_words, size=(n, m))
    # Duplicated rows: equal distances, always inside one cell.
    codes[rng.choice(n, size=n // 4, replace=False)] = codes[rng.integers(0, n)]
    index = QuantizedIndex.build(codebooks, np.zeros((n, DIM)), codes=codes)
    rows = reconstruct(index.codes, index.codebooks)
    # Centroids on top of single rows (thin to populated cells) ...
    centroids = rows[rng.integers(0, n, size=num_cells)] + rng.normal(
        size=(num_cells, DIM)
    ) * 0.01
    # ... and some far from every row (empty cells).
    far = rng.random(num_cells) < empty_fraction
    centroids[far] = rng.normal(size=(int(far.sum()), DIM)) * 1e3 + 1e4
    return rng, index, centroids, assign_to_centroids(rows, centroids)


def oracle(index, centroids, assignments, queries, k, nprobe, rerank):
    """Per query: ``(ids, distances, cells probed, candidates)`` by definition."""
    n, num_cells = len(index), len(centroids)
    sizes = np.bincount(assignments, minlength=num_cells)
    nprobe = min(nprobe, num_cells)
    # The probe widens (doubling) until the cells hold the preselect's
    # width: k, plus the rerank's pad when the rerank will run.
    need = min(k + (RERANK_PAD if rerank else 0), n)
    centroid_d = (centroids**2).sum(axis=1)[None, :] - 2.0 * (queries @ centroids.T)
    answers = []
    for query, order in zip(queries, np.argsort(centroid_d, axis=1, kind="stable")):
        used = nprobe
        while sizes[order[:used]].sum() < need and used < num_cells:
            used = min(num_cells, used * 2)
        rows = np.flatnonzero(np.isin(assignments, order[:used]))  # ascending ids
        d = adc_distances(
            query[None], index.codes[rows], index.codebooks, index.db_sq_norms[rows]
        )[0]
        ranked = np.argsort(d, kind="stable")
        answers.append((rows[ranked], d[ranked], used, len(rows)))
    return answers


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 150),
    m=st.integers(1, 4),
    k_words=st.sampled_from([2, 16, 64, 300]),
    num_cells=st.integers(1, 12),
    empty_fraction=st.sampled_from([0.0, 0.3, 0.8]),
    n_q=st.sampled_from([1, 2, 8, 9, 64]),
    nprobe_fraction=st.floats(0.0, 1.0),
    k_mode=st.sampled_from(["one", "five", "nearest-cell", "all-but-one", "past-all"]),
    rerank=st.booleans(),
)
def test_probe_scan_is_the_reference_over_the_probed_cells(
    scan_kernels, seed, n, m, k_words, num_cells, empty_fraction, n_q,
    nprobe_fraction, k_mode, rerank,
):
    rng, index, centroids, assignments = make_layout(
        seed, n, m, k_words, num_cells, empty_fraction
    )
    queries = rng.normal(size=(n_q, DIM))
    nprobe = 1 + int(nprobe_fraction * (num_cells - 1))
    k = {
        "one": 1,
        "five": 5,
        # Just past what the first query's nearest cell holds: forces widening.
        "nearest-cell": int(np.bincount(assignments, minlength=num_cells)[
            assign_to_centroids(queries[:1], centroids)[0]
        ]) + 1,
        "all-but-one": max(n - 1, 1),
        "past-all": n + 3,
    }[k_mode]
    k_eff = min(k, n)
    want = oracle(index, centroids, assignments, queries, k, nprobe, rerank)
    ivf = IVFIndex.build(index, centroids=centroids)

    def search():
        with obs.observed() as handle:
            got_ids, got_d = ivf.search_with_distances(
                queries, k, rerank=rerank, nprobe=nprobe
            )
        registry = handle.registry
        return got_ids, got_d, registry

    # Without the rerank the answer is the kernel's float32 preselect, so
    # both kernels' values and columns are compared bit for bit here.
    runs = scan_kernels.each(search)
    got_ids, got_d = scan_kernels.agree({name: run[:2] for name, run in runs.items()})
    registry = runs["numpy"][2]
    cells_hist = registry.histogram(names.IVF_CELLS_PROBED)
    cand_hist = registry.histogram(names.IVF_CANDIDATES_SCANNED)
    expanded = registry.counter(names.IVF_PROBES_EXPANDED).value

    assert got_ids.shape == got_d.shape == (n_q, k_eff)
    assert got_ids.dtype == np.int64 and got_d.dtype == np.float64
    for q, (ids, d, _, _) in enumerate(want):
        if rerank:
            assert np.array_equal(got_ids[q], ids[:k_eff])
            assert np.array_equal(got_d[q], d[:k_eff])
            continue
        # A bare float32 scan: the reference's distances within float32
        # tolerance, ordered on (distance, id), and the same ids unless the
        # k-th and (k+1)-th candidates are closer than that tolerance.
        tolerance = 1e-4 * (1.0 + np.abs(d).max())
        exact = dict(zip(ids.tolist(), d.tolist()))
        assert len(set(got_ids[q].tolist())) == k_eff
        assert set(got_ids[q].tolist()) <= set(exact)
        assert np.allclose(
            got_d[q], [exact[i] for i in got_ids[q].tolist()], rtol=0, atol=tolerance
        )
        pairs = list(zip(got_d[q].tolist(), got_ids[q].tolist()))
        assert pairs == sorted(pairs)
        if k_eff == len(ids) or d[k_eff] - d[k_eff - 1] > 2 * tolerance:
            assert set(got_ids[q].tolist()) == set(ids[:k_eff].tolist())

    used = np.array([cells for _, _, cells, _ in want], dtype=float)
    candidates = np.array([count for _, _, _, count in want], dtype=float)
    for hist, values in ((cells_hist, used), (cand_hist, candidates)):
        assert hist.count == n_q
        assert hist.total == values.sum()
        assert (hist.min, hist.max) == (values.min(), values.max())
    assert expanded == int((used > min(nprobe, num_cells)).sum())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(10, 300),
    m=st.integers(1, 3),
    k_words=st.sampled_from([2, 4, 16]),
    num_cells=st.integers(1, 8),
    k=st.integers(1, 30),
)
def test_integer_ties_at_full_probe_keep_the_flat_distances(
    scan_kernels, seed, n, m, k_words, num_cells, k
):
    """Integer-valued codebooks and queries: every distance is exact in
    float32 and float64, so exact ties are everywhere, across cells too. At
    full probe IVF's distances are the flat engine's bit for bit, and its
    ids are rows at those distances, ordered on (distance, id); which rows
    of a tie deeper than ``RERANK_PAD`` survive is walk order (the
    documented contract), so the ids themselves may differ from flat's."""
    rng = np.random.default_rng(seed)
    codebooks = rng.integers(-2, 3, size=(m, k_words, DIM)).astype(np.float64)
    codes = rng.integers(0, k_words, size=(n, m))
    index = QuantizedIndex.build(codebooks, np.zeros((n, DIM)), codes=codes)
    queries = rng.integers(-2, 3, size=(4, DIM)).astype(np.float64)
    k = min(k, n)

    def run():
        ivf = IVFIndex.build(index, num_cells=num_cells, seed=seed)
        flat = QueryEngine(index).search_with_distances(queries, k)
        return (*flat, *ivf.search_with_distances(queries, k, nprobe=ivf.num_cells))

    _, flat_d, ivf_ids, ivf_d = scan_kernels.agree(scan_kernels.each(run))
    assert ivf_d.tobytes() == flat_d.tobytes()
    exact = adc_distances(queries, index.codes, index.codebooks, index.db_sq_norms)
    for q in range(len(queries)):
        assert np.array_equal(exact[q, ivf_ids[q]], ivf_d[q])
        assert len(set(ivf_ids[q].tolist())) == k
        pairs = list(zip(ivf_d[q].tolist(), ivf_ids[q].tolist()))
        assert pairs == sorted(pairs)
