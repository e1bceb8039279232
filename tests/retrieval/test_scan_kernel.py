"""The flat scan kernel against the reference scan, as a property.

``adc.scan_codes`` / ``scan_tables`` / ``scan_topk`` (and the tie-stable
top-k they end in) are checked against ``adc_distances`` + a stable argsort
over the shapes where the kernel changes behaviour: one query vs a chunk vs
more than a chunk, odd and even ``M``, every ``K`` class, row counts on both
sides of the block, lane-group and fusion thresholds, sub-ranges, ``+inf``
norms (tombstones), duplicated rows (ties inside, at and across the k-th
value) and the dtype the codes arrive in (an index's compact store, a wider
archive's, an encoder's int64). The block and top-k thresholds are lowered so small inputs cross
them; the fusion threshold is the real one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import QuantizedIndex, QueryEngine, adc, search
from repro.retrieval.adc import adc_distances

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


def pick_k(mode, width):
    return {"one": 1, "ten": min(10, width), "all-but-one": max(width - 1, 1),
            "all": width}[mode]


def oracle(queries, index, norms, lo, hi, k):
    distances = adc_distances(
        queries, index.codes[lo:hi], index.codebooks, db_sq_norms=norms[lo:hi]
    )
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    return order + lo, np.take_along_axis(distances, order, axis=1), distances


def kernel(queries, index, norms, dtype, fuse, lo, hi, k, code_dtype):
    codes = index.codes.astype(code_dtype)
    codes_t = adc.scan_codes(codes, index.num_codewords, fuse)
    # The layout is a function of the ids, not of the dtype they came in.
    assert np.array_equal(
        codes_t, adc.scan_codes(codes.astype(np.int64), index.num_codewords, fuse)
    )
    tables, q_sq = adc.scan_tables(
        *adc.query_tables(queries, index.codebooks), dtype, fuse
    )
    values, columns, _, _ = adc.scan_topk(
        tables, q_sq, codes_t, norms.astype(dtype), lo, hi, k
    )
    return columns, values


shapes = dict(
    seed=st.integers(0, 2**16),
    n_q=st.integers(1, 9),
    m=st.integers(1, 5),
    k_words=st.sampled_from([2, 4, 16, 64, 256]),
    # Around one block (40 rows / n_q), the 64-lane groups (256+), and the
    # fusion thresholds of K = 2, 4, 16 (16, 64, 1024 rows).
    n=st.sampled_from([3, 15, 16, 39, 41, 63, 64, 65, 255, 257, 600, 1023, 1024, 1300]),
    lo_fraction=st.sampled_from([0.0, 0.0, 0.3]),
    k_mode=st.sampled_from(["one", "ten", "all-but-one", "all"]),
    dup_fraction=st.sampled_from([0.0, 0.2, 0.9]),
    dead_fraction=st.sampled_from([0.0, 0.1, 0.97]),
    code_dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
)


@settings(max_examples=150, deadline=None)
@given(**shapes)
def test_float64_scan_is_the_reference_bit_for_bit(
    seed, n_q, m, k_words, n, lo_fraction, k_mode, dup_fraction, dead_fraction,
    code_dtype,
):
    rng, index, norms = make_case(seed, m, k_words, n, dup_fraction, dead_fraction)
    queries = rng.normal(size=(n_q, DIM))
    lo = int(lo_fraction * n)
    k = pick_k(k_mode, n - lo)
    columns, values = kernel(
        queries, index, norms, np.float64, False, lo, n, k, code_dtype
    )
    want_columns, want_values, _ = oracle(queries, index, norms, lo, n, k)
    assert np.array_equal(columns, want_columns)
    assert np.array_equal(values, want_values)


@settings(max_examples=150, deadline=None)
@given(fuse=st.booleans(), **shapes)
def test_float32_scan_is_a_tie_stable_preselect(
    fuse, seed, n_q, m, k_words, n, lo_fraction, k_mode, dup_fraction,
    dead_fraction, code_dtype,
):
    """Fused or not: values within float32 tolerance of the reference at the
    returned columns, sorted on (value, column), and nothing closer left out."""
    if fuse and m % 2:
        m += 1  # a fused layout has an even M
    rng, index, norms = make_case(seed, m, k_words, n, dup_fraction, dead_fraction)
    queries = rng.normal(size=(n_q, DIM))
    lo = int(lo_fraction * n)
    k = pick_k(k_mode, n - lo)
    columns, values = kernel(
        queries, index, norms, np.float32, fuse, lo, n, k, code_dtype
    )
    _, _, distances = oracle(queries, index, norms, lo, n, k)
    assert columns.shape == values.shape == (n_q, k)
    assert values.dtype == np.float32
    tolerance = 1e-4 * (1.0 + np.abs(distances[np.isfinite(distances)]).max(initial=0.0))
    for q in range(n_q):
        assert len(set(columns[q].tolist())) == k
        exact = distances[q, columns[q] - lo]
        finite = np.isfinite(exact)
        assert np.array_equal(np.isfinite(values[q]), finite)
        assert np.allclose(values[q][finite], exact[finite], rtol=0, atol=tolerance)
        pairs = list(zip(values[q].tolist(), columns[q].tolist()))
        assert pairs == sorted(pairs)
        left_out = np.delete(distances[q], columns[q] - lo)
        if len(left_out) and finite.all():
            assert left_out.min() >= exact.max() - 2 * tolerance


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_q=st.integers(1, 9),
    m=st.sampled_from([2, 3, 4]),
    # Rows on both sides of 4·K²: 64 for K=4, 1024 for K=16.
    k_words=st.sampled_from([4, 16]),
    n=st.sampled_from([63, 64, 300, 1023, 1024, 1500]),
    k_mode=st.sampled_from(["one", "ten", "all-but-one", "all"]),
    dup_fraction=st.sampled_from([0.0, 0.3]),
)
def test_engine_float32_rerank_equals_the_reference(
    seed, n_q, m, k_words, n, k_mode, dup_fraction
):
    """ids and float64 distances identical; without the rerank, float32-close
    and still ordered on (distance, id)."""
    rng, index, _ = make_case(seed, m, k_words, n, dup_fraction, 0.0)
    queries = rng.normal(size=(n_q, DIM))
    k = pick_k(k_mode, n)
    want_ids, want_distances, _ = oracle(queries, index, index.db_sq_norms, 0, n, k)
    with QueryEngine(index, parallel="never") as engine:
        assert engine.sharded.fused == adc.fuses_pairs(np.float32, m, k_words, n)
        ids, distances = engine.search_with_distances(queries, k)
        raw_ids, raw_distances = engine.search_with_distances(queries, k, rerank=False)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(distances, want_distances)
    assert np.allclose(raw_distances, want_distances, rtol=1e-4, atol=1e-3)
    for q in range(n_q):
        pairs = list(zip(raw_distances[q].tolist(), raw_ids[q].tolist()))
        assert pairs == sorted(pairs)


@pytest.mark.parametrize("n_q", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scan_tables_leave_the_batch_tables_alone(n_q, dtype):
    """They are the LUT cache's rows and the rerank's input; a one-query
    float64 chunk is the case where a transposed view aliases them."""
    rng = np.random.default_rng(0)
    lut64, q_sq64 = rng.normal(size=(n_q, 4, 8)), rng.random(n_q)
    before = lut64.copy()
    chunks, q_sq = adc.scan_tables(lut64, q_sq64, dtype, fuse=dtype is np.float32)
    assert np.array_equal(lut64, before)
    assert all(c.flags.c_contiguous and c.dtype == dtype for c in chunks)
    assert not any(np.shares_memory(c, lut64) for c in chunks)


class TestFusionRule:
    def test_decided_by_dtype_parity_width_and_rows(self):
        assert adc.fuses_pairs(np.float32, 8, 64, 16_384)
        assert not adc.fuses_pairs(np.float32, 8, 64, 16_383)  # too few rows
        assert not adc.fuses_pairs(np.float64, 8, 64, 100_000)  # exact scan
        assert not adc.fuses_pairs(np.float32, 7, 64, 100_000)  # odd M
        assert not adc.fuses_pairs(np.float32, 8, 128, 10**6)  # table too wide

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
    """The gathers run ``mode="clip"``; these are the guards that allow it."""

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
