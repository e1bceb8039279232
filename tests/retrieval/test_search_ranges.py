"""``adc.search_ranges`` — float64 tables to answer in one call — as a property.

The stage the flat engine and the IVF probes share: a bound
``adc.ScanLayout``, each query's ``[lo, hi)`` column ranges, an optional id
map, the float32 preselect of ``k + RERANK_PAD`` survivors and the float64
rerank (or, without it, the survivors' float32 values read as float64). It
is checked under both kernels (the ``scan_kernels`` fixture) against

- the NumPy composition it replaces — ``scan_tables`` → ``scan_topk`` →
  ``rerank_exact`` / ``merge_topk`` — bit for bit, ids and float64
  distances, rerank on or off;
- ``adc_distances`` plus a stable argsort: the preselect keeps each query's
  ``k + RERANK_PAD`` smallest in walk order (a tie goes to the row walked
  first), and the answer is the ``k`` best of those on (distance, id).

Over flat layouts, pair-fused (uint16 joint codes) and unfused (uint8, and
uint16 at K = 300); one range, shuffled ranges with empty ones, or per-query
IVF cell lists with an id map; ``n_q`` ∈ {1, 2, 8, 9, 64}; ``k`` up to and
past the candidates; ``+inf`` tombstone norms; and rows copied in groups, so
ties sit at every rank, the k-th included — or nine rows in ten copied from
a few, so more than ``RERANK_PAD`` rows tie at the k-th value and the walk
order decides which of them survive the preselect. The block and top-k thresholds of
the NumPy kernel are lowered so small inputs cross them.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import QuantizedIndex, adc, search
from repro.retrieval.adc import RERANK_PAD, adc_distances

DIM = 6


@pytest.fixture(autouse=True)
def small_thresholds(monkeypatch):
    monkeypatch.setattr(adc, "BLOCK_ELEMENTS", 320)
    monkeypatch.setattr(search, "TOPK_MIN_GROUPS", 4)


def make_layout(seed, m, k_words, n, fuse, dead_fraction, ties="groups"):
    """Codes with planted ties, tombstoned norms, the bound layout over them.

    ``ties="groups"``: disjoint groups of 2-6 equal rows over half the rows;
    ``"heavy"``: nine rows in ten are copies of one of a few source rows.
    """
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(m, k_words, DIM))
    codes = rng.integers(0, k_words, size=(n, m))
    if ties == "heavy":
        copies = rng.choice(n, size=9 * n // 10, replace=False)
        sources = rng.integers(0, n, size=max(1, n // 40))
        codes[copies] = codes[rng.choice(sources, size=len(copies))]
    order, start = rng.permutation(n), 0
    while ties == "groups" and start < n // 2:
        group = order[start:start + rng.integers(2, 7)]
        codes[group] = codes[group[0]]
        start += len(group)
    index = QuantizedIndex.build(codebooks, np.zeros((n, DIM)), codes=codes)
    norms64 = index.db_sq_norms.copy()
    norms64[rng.random(n) < dead_fraction] = np.inf
    layout = adc.ScanLayout(
        adc.scan_codes(index.codes, k_words, fuse), norms64.astype(np.float32),
        norms64, k_words, fuse,
    )
    return rng, index, norms64, layout


def make_queries(rng, index, n_q):
    """Random queries, every other one on a database item (a clamped 0)."""
    queries = rng.normal(size=(n_q, DIM))
    rows = rng.integers(0, len(index), size=len(queries[::2]))
    queries[::2] = adc.reconstruct(index.codes[rows], index.codebooks)
    return queries


def shuffled_split(rng, lo, hi):
    cuts = np.sort(rng.integers(lo, hi + 1, size=rng.integers(1, 5)))
    edges = np.concatenate([[lo], cuts, [hi]])
    spans = [(a, b) for a, b in zip(edges[:-1], edges[1:])] + [(lo, lo), (hi, hi)]
    return [spans[i] for i in rng.permutation(len(spans))]


def make_ranges(rng, walk, n_q, n):
    if walk == "one":
        return np.array([(0, n)])
    if walk == "shuffled":
        return np.array(shuffled_split(rng, 0, n))
    # IVF: cells are contiguous column ranges; each query probes some of
    # them in its own order, padded with empty ranges to a common width.
    edges = np.unique(np.concatenate([[0, n], rng.integers(0, n + 1, size=6)]))
    cells = list(zip(edges[:-1], edges[1:]))
    lists = [
        [cells[c] for c in rng.permutation(len(cells))[: rng.integers(1, len(cells) + 1)]]
        for _ in range(n_q)
    ]
    width = max(len(spans) for spans in lists)
    return np.array([spans + [(0, 0)] * (width - len(spans)) for spans in lists])


def walked(ranges, q):
    spans = ranges[q] if ranges.ndim == 3 else ranges
    return np.concatenate([np.arange(lo, hi) for lo, hi in spans]).astype(np.int64)


def oracle(queries, index, norms64, ranges, k, ids, rerank):
    """Per query ``(ids, distances)``: the walk's reference distances, the
    preselect's stable top ``k (+ RERANK_PAD)`` — no wider than the fewest
    candidates of any query in the batch — then (distance, id)."""
    fewest = min(len(walked(ranges, q)) for q in range(len(queries)))
    width = min(k + RERANK_PAD if rerank else k, fewest)
    answers = []
    for q, query in enumerate(queries):
        columns = walked(ranges, q)
        d = adc_distances(
            query[None], index.codes[columns], index.codebooks, db_sq_norms=norms64[columns]
        )[0]
        kept = np.argsort(d, kind="stable")[:width]
        found = columns[kept] if ids is None else ids[columns[kept]]
        order = np.lexsort((found, d[kept]))[:k]
        answers.append((found[order], d[kept][order]))
    return answers


def composition(lut64, q_sq64, layout, ranges, k, ids, rerank):
    """The NumPy stages ``search_ranges`` stands for, called one by one."""
    tables, q_sq = adc.scan_tables(lut64, q_sq64, layout.fused)
    values, positions = adc.scan_topk(
        tables, q_sq, layout.codes_t, layout.norms, ranges, k + RERANK_PAD if rerank else k
    )
    found = positions if ids is None else ids[positions]
    if rerank:
        return adc.rerank_exact(
            lut64, q_sq64, layout.codes_t, layout.norms64, positions, found, k
        )
    return adc.merge_topk([values.astype(np.float64)], [found], k)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_q=st.sampled_from([1, 2, 8, 9, 64]),
    m=st.integers(1, 5),
    k_words=st.sampled_from([2, 16, 64, 300]),
    fuse=st.booleans(),
    n=st.sampled_from([1, 3, 40, 257, 1300]),
    walk=st.sampled_from(["one", "shuffled", "ivf"]),
    id_map=st.booleans(),
    k_mode=st.sampled_from(["one", "ten", "all-but-one", "all", "past-all"]),
    dead_fraction=st.sampled_from([0.0, 0.1, 0.97]),
    rerank=st.booleans(),
    ties=st.sampled_from(["groups", "heavy"]),
)
def test_search_ranges_is_the_composition_and_the_reference(
    scan_kernels, seed, n_q, m, k_words, fuse, n, walk, id_map, k_mode,
    dead_fraction, rerank, ties,
):
    fuse = fuse and k_words <= 64  # fused tables are K² wide
    if fuse and m % 2:
        m += 1
    rng, index, norms64, layout = make_layout(
        seed, m, k_words, n, fuse, dead_fraction, ties
    )
    queries = make_queries(rng, index, n_q)
    ranges = make_ranges(rng, walk, n_q, n)
    ids = rng.permutation(n).astype(np.int64) if id_map else None
    fewest = min(len(walked(ranges, q)) for q in range(n_q))
    most = max(len(walked(ranges, q)) for q in range(n_q))
    k = {"one": 1, "ten": 10, "all-but-one": max(fewest - 1, 1), "all": max(fewest, 1),
         "past-all": most + 3}[k_mode]
    lut64, q_sq64 = adc.query_tables(queries, index.codebooks)

    got_ids, got_d = scan_kernels.agree(scan_kernels.each(
        lambda: adc.search_ranges(lut64, q_sq64, layout, ranges, k, ids=ids, rerank=rerank)
    ))
    with scan_kernels.use("numpy"):
        want = composition(lut64, q_sq64, layout, ranges, k, ids, rerank)
    scan_kernels.agree({"numpy": want, "search_ranges": (got_ids, got_d)})

    width = min(k, fewest)
    assert got_ids.shape == got_d.shape == (n_q, width)
    assert got_ids.dtype == np.int64 and got_d.dtype == np.float64
    for q, (want_ids, want_d) in enumerate(oracle(queries, index, norms64, ranges, k, ids, rerank)):
        if rerank:
            assert np.array_equal(got_ids[q], want_ids[:width])
            assert np.array_equal(got_d[q], want_d[:width])
            continue
        # Float32 values: the reference's within float32 tolerance, ordered
        # on (distance, id), from the walk, and the reference's ids unless a
        # near-tie sits at the k-th place.
        finite = want_d[np.isfinite(want_d)]
        tolerance = 1e-4 * (1.0 + np.abs(finite).max(initial=0.0))
        assert np.array_equal(np.isfinite(got_d[q]), np.isfinite(want_d[:width]))
        live = np.isfinite(got_d[q])
        assert np.allclose(got_d[q][live], want_d[:width][live], rtol=0, atol=tolerance)
        pairs = list(zip(got_d[q].tolist(), got_ids[q].tolist()))
        assert pairs == sorted(pairs) and len(set(got_ids[q].tolist())) == width
        pool = walked(ranges, q) if ids is None else ids[walked(ranges, q)]
        assert set(got_ids[q].tolist()) <= set(pool.tolist())


def test_bad_ranges_and_positions_are_refused(scan_kernels):
    _, index, norms64, layout = make_layout(0, 2, 4, 5, False, 0.0)
    lut64, q_sq64 = adc.query_tables(np.zeros((2, DIM)), index.codebooks)
    bad_ranges = (
        [(0, 6)], [(-1, 3)], [(0, 2), (4, 3)],
        [[(0, 2), (0, 0)], [(1, 3), (2, 9)]],  # one query's list, its second range
    )
    for name in scan_kernels.names:
        with scan_kernels.use(name):
            for bad in bad_ranges:
                for k in (1, 10):
                    with pytest.raises(ValueError, match="ranges"):
                        adc.search_ranges(lut64, q_sq64, layout, bad, k)
            for positions in ([[0, 5]], [[-1, 2]]):
                positions = np.array(positions * 2)
                with pytest.raises(ValueError, match="positions"):
                    adc.rerank_exact(
                        lut64, q_sq64, layout.codes_t, layout.norms64, positions, positions, 1
                    )


def test_a_batch_that_does_not_fit_the_layout_is_refused(scan_kernels):
    if "c" not in scan_kernels.names:
        pytest.skip("no compiled kernel")
    _, index, norms64, layout = make_layout(0, 4, 16, 50, True, 0.0)
    lut64, q_sq64 = adc.query_tables(np.zeros((3, DIM)), index.codebooks)
    ranges = np.array([(0, 50)])
    for args in (
        (lut64[:, :, :8].copy(), q_sq64, ranges, None),  # K differs
        (lut64[:, :2].copy(), q_sq64, ranges, None),  # M differs
        (lut64.transpose(0, 2, 1).copy().transpose(0, 2, 1), q_sq64, ranges, None),
        (lut64, q_sq64[:2], ranges, None),
        (lut64, q_sq64, ranges, np.arange(49)),  # id map shorter than the layout
    ):
        lut, q_sq, spans, ids = args
        with pytest.raises(ValueError, match="bound layout"):
            adc.search_ranges(lut, q_sq, layout, spans, 5, ids=ids)
    with pytest.raises(ValueError, match="layout"):
        adc.ScanLayout(np.zeros((2, 50), dtype=np.uint16), layout.norms, norms64, 16, True)


def test_four_threads_on_one_bound_layout_get_the_serial_answers(scan_kernels):
    """The compiled call releases the GIL and keeps no state: four threads
    searching one layout at once get what one thread gets."""
    rng = np.random.default_rng(3)
    n, m, k_words = 60_000, 8, 64
    codebooks = rng.normal(size=(m, k_words, DIM))
    index = QuantizedIndex.build(
        codebooks, np.zeros((n, DIM)), codes=rng.integers(0, k_words, size=(n, m))
    )
    layout = adc.ScanLayout(
        adc.scan_codes(index.codes, k_words, True),
        index.db_sq_norms.astype(np.float32), index.db_sq_norms, k_words, True,
    )
    ids = rng.permutation(n).astype(np.int64)
    batches = []
    for i, n_q in enumerate((1, 2, 8, 1, 3, 9, 1, 2)):
        tables = adc.query_tables(rng.normal(size=(n_q, DIM)), codebooks)
        ranges = make_ranges(rng, ("one", "shuffled", "ivf")[i % 3], n_q, n)
        batches.append((tables, ranges, ids if i % 2 else None, bool(i % 4)))

    def search_one(batch):
        (lut64, q_sq64), ranges, id_map, rerank = batch
        return adc.search_ranges(lut64, q_sq64, layout, ranges, 10, ids=id_map, rerank=rerank)

    for name in scan_kernels.names:
        with scan_kernels.use(name):
            serial = [search_one(batch) for batch in batches]
            mismatches, errors = [], []

            def worker(offset):
                try:
                    for round_ in range(3):
                        for i in range(len(batches)):
                            j = (i + offset + round_) % len(batches)
                            got = search_one(batches[j])
                            if not all(np.array_equal(a, b) for a, b in zip(got, serial[j])):
                                mismatches.append(j)
                except Exception as exc:  # reported below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads), name
            assert not errors and not mismatches, (name, errors, mismatches)
