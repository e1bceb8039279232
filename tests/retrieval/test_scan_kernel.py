"""The NumPy scan stages against the reference scan, as a property.

``adc.scan_codes`` / ``scan_tables`` / ``scan_topk`` — the float32
preselect that ``adc.search_ranges`` runs in one compiled call, and its
no-compiler path — are checked against ``adc_distances`` + a stable
argsort (the compiled call is checked against them bit for bit in
``test_search_ranges.py``), over the shapes where the scan changes
behaviour: batch widths on both sides of a chunk, odd and even ``M``, every
``K`` class (uint8, uint16 and, fused, uint32 codes), row counts on both
sides of the block, lane-group and fusion thresholds, ``+inf`` norms
(tombstones), duplicated rows (ties inside, at and across the k-th value),
queries sitting on database items (distances that round below 0 and are
clamped), ``k`` past the candidates, the dtype the codes arrive in, and the
walk: one range, or the candidates split into shuffled ranges with empty
ones between them (an IVF probe order), shared or one list per query. The
block and top-k thresholds are lowered so small inputs cross them; the
fusion threshold is the real one. The engine and the concurrency tests run
the compiled call and the NumPy one in the same process (``scan_kernels``).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import QuantizedIndex, QueryEngine, adc, search
from repro.retrieval.adc import adc_distances, reconstruct

DIM = 6


@pytest.fixture(autouse=True)
def small_thresholds(monkeypatch):
    """Blocks of ~40 rows and a hierarchical top-k from 256 columns on."""
    monkeypatch.setattr(adc, "BLOCK_ELEMENTS", 320)
    monkeypatch.setattr(search, "TOPK_MIN_GROUPS", 4)


def make_case(seed, m, k_words, n, dup_fraction, dead_fraction):
    """Codebooks, codes with planted duplicate rows, norms with tombstones."""
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(m, k_words, DIM))
    codes = rng.integers(0, k_words, size=(n, m))
    n_dup = int(dup_fraction * n)
    if n_dup:
        # Copies of a few source rows, scattered: equal distances at many
        # ranks, so some tie lands inside, at and across any k-th value.
        sources = rng.integers(0, n, size=max(1, n_dup // 4))
        codes[rng.choice(n, size=n_dup, replace=False)] = codes[
            rng.choice(sources, size=n_dup)
        ]
    index = QuantizedIndex.build(codebooks, np.zeros((n, DIM)), codes=codes)
    norms = index.db_sq_norms.copy()
    norms[rng.random(n) < dead_fraction] = np.inf
    return rng, index, norms


def make_queries(rng, index, n_q):
    """Random queries, every other one sitting on a database item: its
    distance there is 0 up to rounding, which the clamp must hold at 0."""
    queries = rng.normal(size=(n_q, DIM))
    on_items = rng.integers(0, len(index), size=len(queries[::2]))
    queries[::2] = reconstruct(index.codes[on_items], index.codebooks)
    return queries


def pick_k(mode, width):
    return {"one": 1, "ten": min(10, width), "all-but-one": max(width - 1, 1),
            "all": width, "past-all": width + 3}[mode]


def shuffled_split(rng, lo, hi):
    """``[lo, hi)`` cut into pieces, empty ranges among them, in random order."""
    cuts = np.sort(rng.integers(lo, hi + 1, size=rng.integers(1, 5)))
    edges = np.concatenate([[lo], cuts, [hi]])
    spans = [(a, b) for a, b in zip(edges[:-1], edges[1:])] + [(lo, lo), (hi, hi)]
    return [spans[i] for i in rng.permutation(len(spans))]


def make_ranges(rng, walk, n_q, lo, hi):
    if walk == "one":
        return np.array([(lo, hi)])
    if walk == "shuffled":
        return np.array(shuffled_split(rng, lo, hi))
    # One list per query, padded with empty ranges to a common length.
    lists = [shuffled_split(rng, lo, hi) for _ in range(n_q)]
    width = max(len(spans) for spans in lists)
    return np.array([spans + [(0, 0)] * (width - len(spans)) for spans in lists])


def oracle(queries, index, norms, ranges, k):
    """Per query: the walk's positions, their reference distances, and the
    stable top-k of those as ``(positions, distances)``."""
    answers = []
    for q, query in enumerate(queries):
        spans = ranges[q] if ranges.ndim == 3 else ranges
        walked = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
        d = adc_distances(
            query[None], index.codes[walked], index.codebooks, db_sq_norms=norms[walked]
        )[0]
        order = np.argsort(d, kind="stable")[:k]
        answers.append((walked, d, walked[order], d[order]))
    return answers


def kernel(queries, index, norms, fuse, ranges, k, code_dtype):
    if np.iinfo(code_dtype).max < index.num_codewords - 1:
        code_dtype = np.int64  # ids past uint8 arrive in something wider
    codes = index.codes.astype(code_dtype)
    codes_t = adc.scan_codes(codes, index.num_codewords, fuse)
    # The layout is a function of the ids, not of the dtype they came in.
    assert np.array_equal(
        codes_t, adc.scan_codes(codes.astype(np.int64), index.num_codewords, fuse)
    )
    tables, q_sq = adc.scan_tables(*adc.query_tables(queries, index.codebooks), fuse)
    values, columns = adc.scan_topk(
        tables, q_sq, codes_t, norms.astype(np.float32), ranges, k
    )
    return columns, values


shapes = dict(
    seed=st.integers(0, 2**16),
    n_q=st.sampled_from([1, 2, 8, 9, 64]),
    m=st.integers(1, 5),
    k_words=st.sampled_from([2, 4, 16, 64, 256, 300]),
    # Around one block (40 rows / n_q), the 64-lane groups (256+), and the
    # fusion thresholds of K = 2, 4, 16 (16, 64, 1024 rows).
    n=st.sampled_from([3, 15, 16, 39, 41, 63, 64, 65, 255, 257, 600, 1023, 1024, 1300]),
    lo_fraction=st.sampled_from([0.0, 0.0, 0.3]),
    walk=st.sampled_from(["one", "one", "shuffled", "per-query"]),
    k_mode=st.sampled_from(["one", "ten", "all-but-one", "all", "past-all"]),
    dup_fraction=st.sampled_from([0.0, 0.2, 0.9]),
    dead_fraction=st.sampled_from([0.0, 0.1, 0.97]),
    code_dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
)


@settings(max_examples=150, deadline=None)
@given(fuse=st.booleans(), **shapes)
def test_float32_scan_is_a_tie_stable_preselect(
    fuse, seed, n_q, m, k_words, n, lo_fraction, walk, k_mode,
    dup_fraction, dead_fraction, code_dtype,
):
    """Fused or not: values within float32 tolerance of the reference at the
    returned columns, sorted on (value, walk order), and nothing closer left
    out."""
    if fuse and m % 2:
        m += 1  # a fused layout has an even M
    if fuse and k_words >= 256:
        n_q = min(n_q, 2)  # K²-entry tables: 256 KB and up per query and pair
    rng, index, norms = make_case(seed, m, k_words, n, dup_fraction, dead_fraction)
    queries = make_queries(rng, index, n_q)
    lo = int(lo_fraction * n)
    k = pick_k(k_mode, n - lo)
    ranges = make_ranges(rng, walk, n_q, lo, n)
    columns, values = kernel(queries, index, norms, fuse, ranges, k, code_dtype)
    k = min(k, n - lo)
    assert columns.shape == values.shape == (n_q, k)
    assert values.dtype == np.float32
    answers = oracle(queries, index, norms, ranges, k)
    finite_d = np.concatenate([d[np.isfinite(d)] for _, d, _, _ in answers])
    tolerance = 1e-4 * (1.0 + np.abs(finite_d).max(initial=0.0))
    for q, (walked, distances, _, _) in enumerate(answers):
        step = {position: i for i, position in enumerate(walked.tolist())}
        assert len(set(columns[q].tolist())) == k
        steps = np.array([step[c] for c in columns[q].tolist()])
        exact = distances[steps]
        finite = np.isfinite(exact)
        assert np.array_equal(np.isfinite(values[q]), finite)
        assert np.allclose(values[q][finite], exact[finite], rtol=0, atol=tolerance)
        pairs = list(zip(values[q].tolist(), steps.tolist()))
        assert pairs == sorted(pairs)
        left_out = np.delete(distances, steps)
        if len(left_out) and finite.all():
            assert left_out.min() >= exact.max() - 2 * tolerance


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_q=st.sampled_from([1, 2, 8, 9]),
    m=st.sampled_from([2, 3, 4]),
    # Rows on both sides of 4·K²: 64 for K=4, 1024 for K=16.
    k_words=st.sampled_from([4, 16]),
    n=st.sampled_from([63, 64, 300, 1023, 1024, 1500]),
    k_mode=st.sampled_from(["one", "ten", "all-but-one", "all"]),
    dup_fraction=st.sampled_from([0.0, 0.3]),
)
def test_engine_float32_rerank_equals_the_reference(
    scan_kernels, seed, n_q, m, k_words, n, k_mode, dup_fraction
):
    """ids and float64 distances identical; without the rerank, float32-close
    and still ordered on (distance, id) — and the same bits from both
    kernels either way."""
    rng, index, _ = make_case(seed, m, k_words, n, dup_fraction, 0.0)
    queries = make_queries(rng, index, n_q)
    k = pick_k(k_mode, n)

    def search():
        with QueryEngine(index, parallel="never") as engine:
            assert engine.sharded.fused == adc.fuses_pairs(m, k_words, n)
            return (
                *engine.search_with_distances(queries, k),
                *engine.search_with_distances(queries, k, rerank=False),
            )

    ids, distances, raw_ids, raw_distances = scan_kernels.agree(scan_kernels.each(search))
    want = oracle(queries, index, index.db_sq_norms, np.array([(0, n)]), k)
    for q, (_, _, want_ids, want_distances) in enumerate(want):
        assert np.array_equal(ids[q], want_ids)
        assert np.array_equal(distances[q], want_distances)
        assert np.allclose(raw_distances[q], want_distances, rtol=1e-4, atol=1e-3)
        pairs = list(zip(raw_distances[q].tolist(), raw_ids[q].tolist()))
        assert pairs == sorted(pairs)


@pytest.mark.parametrize("n_q", [1, 3])
def test_scan_tables_leave_the_batch_tables_alone(n_q):
    """They are the LUT cache's rows and the rerank's input."""
    rng = np.random.default_rng(0)
    lut64, q_sq64 = rng.normal(size=(n_q, 4, 8)), rng.random(n_q)
    before = lut64.copy()
    for fuse in (False, True):
        tables, q_sq = adc.scan_tables(lut64, q_sq64, fuse=fuse)
        assert np.array_equal(lut64, before)
        assert tables.flags.c_contiguous and tables.dtype == q_sq.dtype == np.float32
        assert tables.shape == ((n_q, 2, 64) if fuse else (n_q, 4, 8))
        assert not np.shares_memory(tables, lut64)


def test_scan_ranges_outside_the_layout_are_refused():
    codes_t = adc.scan_codes(np.zeros((5, 2), dtype=np.int64), 4)
    tables, q_sq = adc.scan_tables(np.zeros((1, 2, 4)), np.zeros(1))
    norms = np.zeros(5, dtype=np.float32)
    for bad in ([(0, 6)], [(-1, 3)], [(0, 2), (4, 3)]):
        for k in (2, 0):
            with pytest.raises(ValueError, match="ranges"):
                adc.scan_topk(tables, q_sq, codes_t, norms, bad, k)


def test_concurrent_scans_get_the_serial_answers(scan_kernels):
    """Four threads search one unfused layout with tombstones and an id map
    — a mutable segment's — at once, with the GIL released inside the
    compiled call, and each gets the answers of a serial search: the kernel
    keeps no state between or across calls."""
    rng = np.random.default_rng(3)
    n, m, k_words = 60_000, 8, 64
    codes_t = adc.scan_codes(rng.integers(0, k_words, size=(n, m)), k_words)
    norms64 = rng.random(n) * 10
    norms64[rng.random(n) < 0.3] = np.inf
    layout = adc.ScanLayout(codes_t, norms64.astype(np.float32), norms64, k_words, False)
    ids = np.sort(rng.choice(10 * n, size=n, replace=False)).astype(np.int64)
    batches = [
        adc.query_tables(rng.normal(size=(n_q, DIM)), rng.normal(size=(m, k_words, DIM)))
        for n_q in (1, 2, 8, 1, 3, 9, 1, 2)
    ]
    ranges = [(0, n // 3), (n // 2, n), (n // 3, n // 2)]

    def scan(batch):
        return adc.search_ranges(*batch, layout, ranges, 18, ids=ids)

    answers = {}
    for name in scan_kernels.names:
        with scan_kernels.use(name):
            serial = [scan(batch) for batch in batches]
            answers[name] = [array for answer in serial for array in answer]
            mismatches, errors = [], []

            def worker(offset):
                try:
                    for round_ in range(3):
                        for i in range(len(batches)):
                            j = (i + offset + round_) % len(batches)
                            got = scan(batches[j])
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
    scan_kernels.agree(answers)


class TestFusionRule:
    def test_decided_by_parity_width_and_rows(self):
        assert adc.fuses_pairs(8, 64, 16_384)
        assert not adc.fuses_pairs(8, 64, 16_383)  # too few rows
        assert not adc.fuses_pairs(7, 64, 100_000)  # odd M
        assert not adc.fuses_pairs(8, 128, 10**6)  # table too wide

    def test_joint_codes_keep_the_bytes_and_decode_with_divmod(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 64, size=(50, 4))
        joint = adc.scan_codes(codes, 64, fuse=True)
        plain = adc.scan_codes(codes, 64)
        assert joint.dtype == np.uint16 and joint.shape == (2, 50)
        assert joint.nbytes == plain.nbytes
        high, low = np.divmod(joint, 64)
        assert np.array_equal(high.T, codes[:, 0::2])
        assert np.array_equal(low.T, codes[:, 1::2])


class TestHoistedRangeCheck:
    """The lookups trust the layout's range; these are the guards that allow it."""

    def test_layout_rejects_out_of_range_ids(self):
        for bad in (4, -1, 260):  # 260 would wrap to 4 in uint8
            codes = np.zeros((5, 2), dtype=np.int64)
            codes[3, 1] = bad
            for fuse in (False, True):
                with pytest.raises(ValueError, match="out of codebook range"):
                    adc.scan_codes(codes, 4, fuse)

    def test_layout_is_frozen(self):
        codes_t = adc.scan_codes(np.zeros((5, 2), dtype=np.int64), 4)
        with pytest.raises(ValueError, match="read-only"):
            codes_t[0, 0] = 1

    def test_seal_checks_then_freezes_a_foreign_buffer(self):
        buffer = np.array([[0, 3], [2, 1]], dtype=np.uint8)
        assert adc.seal_scan_codes(buffer, 4) is buffer
        assert not buffer.flags.writeable
        with pytest.raises(ValueError, match="4-entry lookup table"):
            adc.seal_scan_codes(np.array([[0, 4]], dtype=np.uint8), 4)
