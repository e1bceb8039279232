"""Asymmetric distance computation (ADC) over additive quantization codes.

Implements the inference path of §IV: a database item is stored as ``M``
codeword ids plus the scalar ``‖Σ_j o^j‖²``; a query's distance to it is

``‖q − o‖² = ‖q‖² + ‖Σ_j o^j‖² − 2 Σ_j ⟨q, o^j⟩``        (Eqn. 24)

so per query we precompute one ``M × K`` inner-product lookup table against
the codebooks (``O(d·M·K)`` work) and then score each database item with
``M`` table lookups — never touching the original ``d``-dimensional
vectors.

This module holds the one implementation of each numerical stage of that
path; the search surfaces (:class:`~repro.retrieval.index.QuantizedIndex`,
:class:`~repro.retrieval.engine.QueryEngine`,
:class:`~repro.retrieval.ivf.IVFIndex`,
:class:`~repro.retrieval.mutable.MutableIndex`) differ only in which code
blocks they hand to it:

- :func:`query_tables` — the per-batch float64 tables plus ``‖q‖²``
  (through a :class:`~repro.retrieval.lut_cache.LUTCache` when one is
  attached);
- :func:`search_ranges` — everything after the tables for a float32
  layout (:class:`ScanLayout`), the stage of every search surface: a
  float32 preselect over ``[lo, hi)`` column ranges (one for the flat
  engine and for each mutable segment, the probed cells for IVF), the
  float64 rerank of its survivors, the id map, the answer (see "One call
  per batch" below);
- :func:`scan_codes` — a sealed ``(columns, n)`` code layout;
- :func:`scan_tables` / :func:`scan_topk` / :func:`rerank_exact` — the
  NumPy stages :func:`search_ranges` is made of: the batch's float32
  tables laid out for the scan, the scan of column ranges keeping each
  query's tie-stable top-k, and the float64 re-score at the scattered
  *positions* of its survivors;
- :func:`merge_topk` — the tie-stable reduction on ``(distance, id)``.

:func:`adc_distances` stays the float64 reference every one of them is
tested against.

One call per batch. A float32 layout is bound once, when it is built:
:class:`ScanLayout` takes the compiled kernel's view of its codes and
norms — addresses, stride, length, fused flag — and holds the arrays. A
batch then costs the table build and one GIL-free call
(:meth:`~repro.native.Kernel.search`) that, query by query,
builds the float32 tables from the float64 ones (the operations of
:func:`scan_tables`), scans the query's ranges, reranks its survivors in
float64 (those of :func:`rerank_exact`) and maps them through the id map;
only the batch's own arrays are marshalled. :func:`search_ranges` without
the compiled kernel is the composition :func:`scan_tables` →
:func:`scan_topk` → :func:`rerank_exact` / :func:`merge_topk`, which is
also its reference. What stays in NumPy, and why: the float64 table build
(:func:`build_lookup_tables`' einsum fixes the summation order every
answer is defined by, and the LUT cache reuses its rows) and query
validation.

The scan. :func:`search_ranges` is served by one of two kernels with one
contract:

- *compiled* (``native.c``, built and bound by
  :mod:`repro.native`): one ``ctypes`` call serves the whole batch with the
  GIL released, query by query and row by row with the columns unrolled,
  and keeps a running top-k heap per query, testing each row against the
  current k-th value before the heap is touched.
- *NumPy* (:func:`scan_topk`): the reference, and the fallback where no
  compiler exists or the build fails. A chunk of up to :data:`QUERY_CHUNK`
  queries has its tables transposed to query-minor ``(columns, width,
  n_q)``, so one code gathers ``n_q`` contiguous floats (a lone query
  gathers from its 1-D tables); each block of rows (:data:`BLOCK_ELEMENTS`
  floats) is gathered, accumulated and turned into distances while
  cache-resident; a tie-stable top-k
  (:func:`~repro.retrieval.search.topk_tie_stable`) selects; several
  ranges are gathered into one block in walk order.

One rule dispatches: the compiled kernel if it loaded, NumPy otherwise
(:data:`SCAN_KERNEL` says which). Both compute the same float operations in
the same order — a row's entries summed left to right, then ``−2·cross +
(‖q‖² + ‖o‖²)`` clamped at 0 — and break ties the same way, toward the row
walked first, so they return the same bits. Shared by both:

- *pair-fused tables*: where :func:`fuses_pairs` says so the layout stores
  the joint code ``c_{2j}·K + c_{2j+1}`` of each codebook pair and the
  float32 tables are summed pairwise to ``M/2`` tables of ``K²`` entries —
  half the lookups for ``M/2·K²`` extra adds per query;
- *range check hoisted*: :func:`scan_codes` / :func:`seal_scan_codes`
  verify ``codes < width`` once and freeze the array, so lookups trust it
  (NumPy gathers run ``mode="clip"``; the compiled kernel checks only the
  ranges). Building a layout is also where the compiled kernel is built or
  loaded, once per process, so no request waits on a compiler.

The float32 scan — fused or not — is only ever a preselect: its ``k +
RERANK_PAD`` survivors are re-scored in float64 with :func:`adc_distances`'
left-to-right summation and ``(‖q‖² + ‖o‖²) − 2·cross`` order
(:func:`rerank_exact`'s arithmetic), decoding joint codes with
``divmod(code, K)`` at those few positions.

The two stages are observable separately (:mod:`repro.obs`): with
observability enabled, :func:`query_tables` emits the lookup-table build
time (``adc.lut.build_time_s``) and :func:`adc_distances` the table-scan
time (``adc.scan.time_s``) and the realised scan throughput in code lookups
per second (``adc.scan.codes_per_s``, always the logical ``n_q·n·M``
lookups of §IV's cost model, whatever the layout gathers) — the quantities
``benchmarks/perf`` reads as ``retrieval.adc.*`` / ``retrieval.engine.*``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro import native
from repro.retrieval.search import topk_tie_stable


def __getattr__(name: str):
    # SCAN_KERNEL: "c" or "numpy", whichever serves search_ranges.
    # Read-only, and resolved on first read, so importing
    # this module builds nothing.
    if name == "SCAN_KERNEL":
        return "numpy" if native.load() is None else "c"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Extra candidates every scanned block carries into the float64 rerank.
RERANK_PAD = 8

#: Queries scanned together. Gathers are query-minor, so a scan costs about
#: the same for 1 to 8 queries; past 8 the chunk's tables (and its distance
#: rows, for the top-k) fall out of cache and the cost per query rises again.
QUERY_CHUNK = 8

#: Floats (rows × chunk queries) of one scan block: gathered, accumulated and
#: assembled into distances while still cache-resident.
BLOCK_ELEMENTS = 1 << 17

#: Widest fused table (``K²`` entries) :func:`fuses_pairs` accepts: 16 KB a
#: query in float32, 128 KB a chunk. Measured, K=128 (64 KB / 512 KB) halves
#: a lone query's scan but costs an 8-query chunk 5–60 % more, so it stays
#: unfused.
FUSED_WIDTH_MAX = 4096


def validate_codes(codes: np.ndarray, num_codebooks: int, num_codewords: int) -> np.ndarray:
    """Check code array shape/dtype/range and return it in the storage dtype.

    That is :func:`compact_code_dtype`, which every index, segment, layout
    and archive keeps codes in; an array already in it is not copied.
    Float arrays are accepted only when every value sits exactly on the
    integer lattice (e.g. a float64 array of whole numbers out of a generic
    pipeline); fractional or non-finite values would previously be floored
    silently by the cast, corrupting the codes.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != num_codebooks:
        raise ValueError(
            f"codes must be (n, {num_codebooks}), got shape {codes.shape}"
        )
    if not (np.issubdtype(codes.dtype, np.integer) or codes.dtype == np.bool_):
        if not np.issubdtype(codes.dtype, np.floating):
            raise ValueError(
                f"codes must be an integer array, got dtype {codes.dtype}"
            )
        if codes.size and not np.all(np.mod(codes, 1) == 0):
            raise ValueError(
                "float codes contain values off the integer lattice; "
                "refusing to floor them into valid-looking codeword ids"
            )
    if codes.size and (codes.min() < 0 or codes.max() >= num_codewords):
        raise ValueError("code ids out of codebook range")
    return codes.astype(compact_code_dtype(num_codewords), copy=False)


#: Float64 cells :func:`reconstruct` gathers at a time (2 MB).
RECONSTRUCT_CELLS = 1 << 18

#: Float64 cells of one encode row block's working set — its ``(rows, K)``
#: scores, ``(rows, d)`` residual and ``(rows, d)`` decode (1 MB: 1 024 rows
#: at M8 × K64, d 32) — which every codebook level reuses from L2.
ENCODE_CELLS = 1 << 17


def reconstruct(codes: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Additive reconstruction ``o_i = Σ_j C_j[b_i[j]]``.

    Parameters
    ----------
    codes:
        ``(n, M)`` codeword ids.
    codebooks:
        ``(M, K, d)`` stacked codebooks.

    Each row is ``((0.0 + C_0[b_0]) + C_1[b_1]) + …``: NumPy's sum over the
    level axis, which starts from ``+0.0``. The compiled row decode
    (:meth:`repro.native.Kernel.decode`) adds the levels straight into the
    output row; the NumPy path below — the reference, and the no-compiler
    path — gathers a ``(rows, M, d)`` block at a time and sums it. 8 192 rows
    at M8 × K128, d 64 decode in about 0.5 ms compiled and 4 ms on NumPy
    (one core). At ``d = 1`` NumPy sums the levels pairwise from ``M = 8``
    on, so NumPy decodes there.
    """
    codebooks = np.asarray(codebooks, dtype=np.float64)
    m, k, dim = codebooks.shape
    codes = validate_codes(codes, m, k)
    kernel = native.load() if dim > 1 and len(codes) else None
    if kernel is not None:
        return kernel.decode(codes, np.ascontiguousarray(codebooks))
    levels = np.arange(m)[None, :]
    out = np.empty((len(codes), dim))
    # A row chunk at a time: the gathered (rows, M, d) block stays in cache
    # and every row's sum is the one the whole-matrix form computes.
    rows = max(1, RECONSTRUCT_CELLS // max(m * dim, 1))
    for lo in range(0, len(codes), rows):
        out[lo : lo + rows] = codebooks[levels, codes[lo : lo + rows]].sum(axis=1)
    return out


def build_lookup_tables(queries: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Inner products ``⟨q, C_j[k]⟩`` for every query/codebook/codeword.

    Returns ``(n_q, M, K)``; this is the ``O(d·M·K)`` precomputation per
    query batch in §IV-B.
    """
    queries = np.asarray(queries, dtype=np.float64)
    codebooks = np.asarray(codebooks, dtype=np.float64)
    return np.einsum("qd,mkd->qmk", queries, codebooks)


def query_tables(
    queries: np.ndarray, codebooks: np.ndarray, lut_cache=None
) -> tuple[np.ndarray, np.ndarray]:
    """``(lut64, q_sq64)``: the float64 tables and ``‖q‖²`` of one batch.

    The LUT stage of every search surface. ``lut_cache`` (a
    :class:`~repro.retrieval.lut_cache.LUTCache`) reuses rows of repeated
    queries bit-identically; ``None`` builds the whole block.
    """
    obs = get_obs()
    start = time.perf_counter() if obs.enabled else 0.0
    if lut_cache is not None:
        lut64 = lut_cache.tables(queries, codebooks)
    else:
        lut64 = build_lookup_tables(queries, codebooks)
    q_sq64 = (queries**2).sum(axis=1)
    if obs.enabled:
        obs.registry.histogram(metric_names.ADC_LUT_BUILD_TIME).observe(
            time.perf_counter() - start
        )
    return lut64, q_sq64


def compact_code_dtype(num_codewords: int) -> np.dtype:
    """Narrowest unsigned dtype that can hold codeword ids below ``K``."""
    if num_codewords <= 0:
        raise ValueError("num_codewords must be positive")
    if num_codewords <= 2**8:
        return np.dtype(np.uint8)
    if num_codewords <= 2**16:
        return np.dtype(np.uint16)
    if num_codewords <= 2**32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


def fuses_pairs(num_codebooks: int, num_codewords: int, n_items: int) -> bool:
    """Whether a flat layout of this shape stores pair-fused joint codes.

    Fusion halves the gathers and costs ``M/2·K²`` adds per query, so it
    needs rows to amortise over (``n ≥ 4·K²``), an even ``M``, and fused
    tables that stay cache-resident (:data:`FUSED_WIDTH_MAX`). The layout
    is scanned in float32: its result is a preselect the float64 rerank
    re-scores, so the fused summation order changes no answer.
    """
    width = num_codewords * num_codewords
    return (
        num_codebooks % 2 == 0
        and width <= FUSED_WIDTH_MAX
        and n_items >= 4 * width
    )


def seal_scan_codes(codes_t: np.ndarray, width: int) -> np.ndarray:
    """Verify a ``(columns, n)`` scan layout against its table width, freeze it.

    The hoisted half of the kernel's range check: :func:`scan_topk` gathers
    with ``mode="clip"``, which is the identity only on codes below
    ``width`` — so every array it is handed was either built by
    :func:`scan_codes` or (an array built elsewhere, e.g. an IVF
    permutation) passed here, and cannot be written since.
    """
    if codes_t.size and (codes_t.min() < 0 or codes_t.max() >= width):
        raise ValueError(
            f"scan codes out of range for a {width}-entry lookup table"
        )
    codes_t.setflags(write=False)
    native.load()  # a layout exists: build the kernel now, not in a request
    return codes_t


def scan_codes(
    codes: np.ndarray, num_codewords: int, fuse: bool = False
) -> np.ndarray:
    """The frozen ``(columns, n)`` scan layout of ``(n, M)`` codeword ids.

    Unfused, column ``j`` is codebook ``j`` in :func:`compact_code_dtype` —
    the code store itself: the ``(n, M)`` view of a frozen layout (what
    ``QuantizedIndex.codes`` is) comes back as that layout, not a copy.
    With ``fuse`` (``M`` even), column ``j`` holds the joint code
    ``c_{2j}·K + c_{2j+1}`` in the unsigned dtype twice as wide — the same
    bytes as the pair it replaces; the per-codebook ids are recovered with
    ``divmod(code, K)`` (:func:`rerank_exact`), never stored twice.
    Ids outside ``[0, K)`` are rejected here, before the narrowing cast
    could wrap them into range (see :func:`seal_scan_codes`).
    """
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= num_codewords):
        raise ValueError("code ids out of codebook range")
    dtype = compact_code_dtype(num_codewords)
    if fuse:
        # Built in place in one array, the arithmetic in *its* dtype: the
        # input's would wrap c·K for codes that are already compact.
        codes_t = np.empty(
            (codes.shape[1] // 2, len(codes)), dtype=f"u{2 * dtype.itemsize}"
        )
        wide = {"out": codes_t, "dtype": codes_t.dtype, "casting": "unsafe"}
        np.multiply(codes[:, 0::2].T, num_codewords, **wide)
        np.add(codes_t, codes[:, 1::2].T, **wide)
    else:
        codes_t = np.ascontiguousarray(codes.T, dtype=dtype)
        if codes_t.flags.writeable and np.may_share_memory(codes_t, codes):
            codes_t = codes_t.copy()  # the caller can still write to theirs
    codes_t.setflags(write=False)
    native.load()  # a layout exists: build the kernel now, not in a request
    return codes_t


class ScanLayout:
    """A float32 scan layout bound once for :func:`search_ranges`.

    ``codes_t`` comes from :func:`scan_codes` or :func:`seal_scan_codes`
    (pair-fused when ``fused``, over ``num_codewords``-entry codebooks);
    ``norms`` / ``norms64`` are its float32 and float64 ``‖o‖²``. The
    compiled kernel's view of them — addresses, stride, length, fused flag
    (:func:`~repro.native.layout_args`) — is taken here, once,
    and the layout holds the arrays it points into, so they live as long as
    it does. No copy is made: the arrays are the owner's (a
    :class:`~repro.retrieval.engine.ShardedIndex`, an
    :class:`~repro.retrieval.ivf.IVFIndex`, a mutable
    :class:`~repro.retrieval.mutable.Segment`).
    """

    __slots__ = ("codes_t", "norms", "norms64", "num_codewords", "fused", "binding")

    def __init__(self, codes_t, norms, norms64, num_codewords: int, fused: bool) -> None:
        self.codes_t, self.norms, self.norms64 = codes_t, norms, norms64
        self.num_codewords, self.fused = int(num_codewords), bool(fused)
        self.binding = native.layout_args(codes_t, norms, norms64, self.fused)


def scan_tables(
    lut64: np.ndarray, q_sq64: np.ndarray, fuse: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The batch's float32 tables as :func:`scan_topk` reads them.

    Returns ``(tables, q_sq)``: one fresh, contiguous, query-major
    ``(n_q, columns, width)`` float32 array, pre-scaled by −2 (exact: a
    power of two), so accumulating looked-up entries yields Eqn. 24's
    ``−2·cross`` term directly — and ``‖q‖²`` in float32. With ``fuse``
    consecutive table pairs are summed to ``(n_q, M/2, K²)`` — entry ``a·K +
    b`` of pair ``j`` is ``lut[2j, a] + lut[2j+1, b]``, matching the joint
    codes of :func:`scan_codes`.
    """
    n_q, m, width = lut64.shape
    # Always a fresh array: scaling a view of the batch would corrupt the
    # caller's tables (the LUT cache's rows and the rerank's input).
    tables = np.empty(lut64.shape, dtype=np.float32)
    np.multiply(lut64, -2.0, out=tables, casting="same_kind")
    if fuse:
        tables = (tables[:, 0::2, :, None] + tables[:, 1::2, None, :]).reshape(
            n_q, m // 2, width * width
        )
    return tables, np.ascontiguousarray(q_sq64, dtype=np.float32)


def _scan_distances(tables, q_sq, codes_t, norms, lo, hi):
    """``(n_c, hi - lo)`` distances of a query chunk over columns ``[lo, hi)``.

    ``tables`` is the chunk's ``(n_c, columns, width)`` slice of
    :func:`scan_tables`, transposed here to query-minor ``(columns, width,
    n_c)`` so one code gathers ``n_c`` contiguous floats (a lone query
    gathers from its own 1-D tables). Per block of rows: gather table 0 into
    a query-minor accumulator and add the other tables left to right (``0 +
    x == x`` in IEEE, so this is :func:`adc_distances`' accumulation, of
    entries already scaled by −2); then ``−2·cross + (‖q‖² + ‖o‖²)`` is one
    transposing add into the block's slab of the output, clamped at 0 while
    the slab is cache-resident.
    """
    n_c, columns = tables.shape[:2]
    single = n_c == 1
    # 1-D gathers for a lone query: faster than (width, 1) rows.
    tables = tables[0] if single else np.ascontiguousarray(tables.transpose(1, 2, 0))
    out = np.empty((n_c, hi - lo), dtype=tables.dtype)
    rows = max(BLOCK_ELEMENTS // n_c, 1)
    block = None if single else np.empty((min(rows, hi - lo), n_c), out.dtype)
    for start in range(lo, hi, rows):
        end = min(start + rows, hi)
        d = out[:, start - lo : end - lo]
        acc = d[0] if single else block[: end - start]
        np.take(tables[0], codes_t[0, start:end], axis=0, out=acc, mode="clip")
        for j in range(1, columns):
            acc += tables[j].take(codes_t[j, start:end], axis=0, mode="clip")
        np.add(acc.T, np.add.outer(q_sq, norms[start:end]), out=d)
        np.maximum(d, 0.0, out=d)
    return out


def scan_topk(tables, q_sq, codes_t, norms, ranges, k):
    """Float32 distances + tie-stable top-k over column ranges of one layout.

    The NumPy scan: the reference for the scan inside the compiled
    :func:`search_ranges`, and that function's no-compiler path.
    ``tables`` / ``q_sq`` come from :func:`scan_tables` and ``codes_t`` from
    :func:`scan_codes` (or :func:`seal_scan_codes`): the lookups trust its
    range. ``ranges`` holds ``[lo, hi)`` column ranges — ``(R, 2)`` walked
    by every query, or ``(n_q, R, 2)``, one list per query (an IVF probe
    order) — in any order, empty ones included. A query's candidates are
    its ranges' columns in walk order; it keeps the ``min(k, fewest
    candidates of any query)`` smallest, sorted on (value, walk order), so a
    tie goes to the row walked first. A ``+inf`` norm (a tombstoned row)
    scans at ``+inf``. One range is scanned in place; several are gathered
    into one block in walk order, whose columns map back to layout
    positions.

    Returns ``(values, columns)``: float32 values, and columns as positions
    in ``codes_t``.
    """
    ranges = np.ascontiguousarray(ranges, dtype=np.int64)
    if (ranges < 0).any() or (ranges[..., 1] > codes_t.shape[1]).any() or (
        ranges[..., 0] > ranges[..., 1]
    ).any():
        raise ValueError("scan ranges fall outside the layout")
    kk = max(0, min(k, int((ranges[..., 1] - ranges[..., 0]).sum(axis=-1).min())))
    if kk == 0:
        return (
            np.empty((len(tables), 0), dtype=tables.dtype),
            np.empty((len(tables), 0), dtype=np.int64),
        )
    if ranges.ndim == 2:
        groups = [(slice(None), ranges)]
    else:
        groups = [(slice(q, q + 1), spans) for q, spans in enumerate(ranges)]
    values, columns = [], []
    for rows, spans in groups:
        group_tables, group_q_sq, spans = tables[rows], q_sq[rows], spans.tolist()
        if len(spans) == 1:
            (lo, hi), block, block_norms, positions = spans[0], codes_t, norms, None
        else:
            positions = np.concatenate(
                [np.arange(lo, hi, dtype=np.int64) for lo, hi in spans]
            )
            block = np.concatenate([codes_t[:, lo:hi] for lo, hi in spans], axis=1)
            block_norms = np.concatenate([norms[lo:hi] for lo, hi in spans])
            lo, hi = 0, len(positions)
        for first in range(0, len(group_tables), QUERY_CHUNK):
            last = first + QUERY_CHUNK
            d = _scan_distances(
                group_tables[first:last], group_q_sq[first:last],
                block, block_norms, lo, hi,
            )
            local, vals = topk_tie_stable(d, kk)
            values.append(vals)
            columns.append(local + lo if positions is None else positions[local])
    return np.concatenate(values), np.concatenate(columns)


def merge_topk(
    block_distances: list[np.ndarray],
    block_ids: list[np.ndarray],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce per-block candidates to the tie-stable top-k on (distance, id).

    Blocks are ``(n_q, c_i)`` arrays concatenated along the candidate axis.
    Ids are the ones callers return (global rows, external ids), so ties
    across blocks resolve by id exactly as a stable sort of the unsplit
    distance matrix would. Returns ``(ids, distances)``.
    """
    dists = np.concatenate(block_distances, axis=1)
    ids = np.concatenate(block_ids, axis=1)
    k = max(0, min(k, dists.shape[1]))
    order = np.lexsort((ids, dists), axis=-1)[:, :k]
    rows = np.arange(dists.shape[0])[:, None]
    return ids[rows, order], dists[rows, order]


def rerank_exact(lut64, q_sq64, codes_t, norms64, positions, ids, k):
    """Re-score candidates in float64 and keep the tie-stable top-k.

    ``positions`` are ``(n_q, c)`` columns of ``codes_t`` / ``norms64``;
    ``ids`` the ids those columns are returned (and tie-broken) under — the
    same array for a flat layout, the id map's image for a permuted one.
    Eqn. 24 with :func:`adc_distances`' left-to-right accumulation, gathered
    at scattered columns instead of a contiguous range, so the candidates
    rank exactly as the reference ranks them. ``lut64`` is the row-major
    ``(n_q, M, K)`` table block; a ``codes_t`` with ``M/2`` columns is a
    pair-fused layout (:func:`scan_codes`), whose joint codes are decoded
    here, at these few positions only. Cost is ``O(n_q · c · M)`` —
    negligible next to the scan. The compiled :func:`search_ranges` runs
    the same arithmetic and the same (distance, id) selection in C; this is
    its reference.
    """
    if positions.size and (positions.min() < 0 or positions.max() >= codes_t.shape[1]):
        raise ValueError("rerank positions fall outside the layout")
    rows = np.arange(len(positions))[:, None]
    m, num_codewords = lut64.shape[1:]
    if len(codes_t) == m:
        codes = [column[positions] for column in codes_t]
    else:
        codes = [
            half
            for column in codes_t
            for half in divmod(column[positions], num_codewords)
        ]
    cross = lut64[rows, 0, codes[0]]
    for j in range(1, m):
        cross = cross + lut64[rows, j, codes[j]]
    d = q_sq64[:, None] + norms64[positions] - 2.0 * cross
    np.maximum(d, 0.0, out=d)
    return merge_topk([d], [ids], k)


def search_ranges(lut64, q_sq64, layout, ranges, k, *, ids=None, rerank=True):
    """A float32 layout's answer: each query's top-``k`` over its ranges.

    The one stage between :func:`query_tables` and an answer, for the flat
    engine, the IVF probes and the mutable segments. ``lut64`` /
    ``q_sq64`` are a non-empty batch's float64 tables, ``layout`` a
    :class:`ScanLayout` and ``ranges`` :func:`scan_topk`'s ``[lo, hi)``
    column ranges. Each query keeps the
    ``k + RERANK_PAD`` survivors of its float32 scan (as :func:`scan_topk`
    does, no more than the fewest candidates of any query) and returns the
    ``k`` best of them on (distance, id): re-scored in float64
    (``rerank``), or their float32 values read as float64. Ids are layout
    positions, or their image under the id map ``ids`` (an IVF
    permutation, a segment's external ids). Returns ``(ids, distances)``, ``(n_q, min(k, fewest
    candidates))``.

    With the compiled kernel it is one call per batch — tables, scan,
    rerank and id map in C, over the addresses the layout bound when it was
    built. Otherwise it is the composition below, which is also the
    reference: :func:`scan_tables` → :func:`scan_topk` → :func:`rerank_exact`
    or :func:`merge_topk`. Both do the same float operations in the same
    order and return the same bits.
    """
    ranges = np.ascontiguousarray(ranges, dtype=np.int64)
    k_scan = k + RERANK_PAD if rerank else k
    kernel = native.load()
    if kernel is not None:
        return kernel.search(lut64, q_sq64, layout, ranges, ids, k_scan, k, rerank)
    tables, q_sq = scan_tables(lut64, q_sq64, layout.fused)
    values, positions = scan_topk(
        tables, q_sq, layout.codes_t, layout.norms, ranges, k_scan
    )
    found = positions if ids is None else ids[positions]
    if rerank:
        return rerank_exact(
            lut64, q_sq64, layout.codes_t, layout.norms64, positions, found, k
        )
    return merge_topk([values.astype(np.float64)], [found], k)


def adc_distances(
    queries: np.ndarray,
    codes: np.ndarray,
    codebooks: np.ndarray,
    db_sq_norms: np.ndarray | None = None,
) -> np.ndarray:
    """``(n_q, n_db)`` squared distances via lookup tables (Eqn. 24).

    ``db_sq_norms`` are the stored ``‖Σ_j o^j‖²`` values; recomputed from
    the codes when not supplied.
    """
    codebooks = np.asarray(codebooks, dtype=np.float64)
    m, k, _ = codebooks.shape
    codes = validate_codes(codes, m, k)
    if db_sq_norms is None:
        db_sq_norms = (reconstruct(codes, codebooks) ** 2).sum(axis=1)
    queries = np.asarray(queries, dtype=np.float64)
    tables, q_sq = query_tables(queries, codebooks)  # (n_q, M, K), (n_q,)
    obs = get_obs()
    scan_start = time.perf_counter() if obs.enabled else 0.0
    # Σ_j ⟨q, C_j[b_j]⟩ through fancy indexing: tables[:, j, codes[:, j]].
    cross = np.zeros((len(queries), len(codes)))
    for j in range(m):
        cross += tables[:, j, codes[:, j]]
    distances = q_sq[:, None] + db_sq_norms[None, :] - 2.0 * cross
    np.maximum(distances, 0.0, out=distances)
    if obs.enabled:
        scan_elapsed = time.perf_counter() - scan_start
        registry = obs.registry
        registry.histogram(metric_names.ADC_SCAN_TIME).observe(scan_elapsed)
        if scan_elapsed > 0:
            registry.histogram(metric_names.ADC_SCAN_CODES_PER_S).observe(
                len(queries) * len(codes) * m / scan_elapsed
            )
    return distances


def encode_nearest(
    features: np.ndarray, codebooks: np.ndarray, residual: bool = True
) -> np.ndarray:
    """Greedy nearest-codeword encoding of continuous vectors (Fig. 3).

    With ``residual=True`` (the DSQ topology, Eqn. 2) each codebook encodes
    the residual left by the previous pairs; with ``residual=False`` every
    codebook independently encodes the original vector. Rows must be
    finite: a NaN or infinite row raises ``ValueError``.
    """
    return _encode(features, codebooks, residual, decode=False)[0]


def encode_reconstruct(
    features: np.ndarray, codebooks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, reconstructions)``: residual :func:`encode_nearest` codes and
    their :func:`reconstruct` decode — what an index build stores norms of.

    The compiled select pass decodes as it encodes, so the rows are not
    gathered a second time; its running sum (``0 + C_0[b_0] + C_1[b_1] +
    …``) is :func:`reconstruct`'s except at ``d = 1``, where NumPy sums the
    level axis pairwise from ``M = 8`` on, so there :func:`reconstruct` runs.
    """
    return _encode(features, codebooks, residual=True, decode=True)


def _encode(features, codebooks, residual: bool, decode: bool):
    """:func:`encode_nearest`'s codes, and their decode when ``decode``.

    Per level one GEMM in BLAS, then either the compiled select pass
    (:func:`_encode_blocks`) or the NumPy passes below — the reference, and
    the no-compiler path; both round the same.
    """
    features = np.asarray(features, dtype=np.float64)
    codebooks = np.asarray(codebooks, dtype=np.float64)
    if not np.isfinite(features).all():
        raise ValueError("rows to encode must be finite (found NaN or inf)")
    m, k, d = codebooks.shape
    n = len(features)
    # ``cross·(−2) + ‖c‖²`` is bit-identical to the textbook ``c_sq −
    # 2·target@C.T`` — multiplying by −2.0 is an exact scale/sign flip and
    # IEEE addition is commutative — so argmin ties break the same.
    code_sq = (codebooks * codebooks).sum(axis=2)  # (M, K)
    kernel = native.load() if n else None
    if kernel is not None:
        codes, recon = _encode_blocks(kernel, features, codebooks, code_sq, residual, decode)
    else:
        codes = np.empty((n, m), dtype=np.int64)
        target = features.copy()
        scores = np.empty((n, k))
        level = np.empty((n, d))
        for j in range(m):
            np.matmul(target, codebooks[j].T, out=scores)
            scores *= -2.0
            scores += code_sq[j]
            codes[:, j] = scores.argmin(axis=1)
            if residual and j + 1 < m:
                np.take(codebooks[j], codes[:, j], axis=0, out=level)
                target -= level
        recon = None
    if decode and recon is None:
        recon = reconstruct(codes, codebooks)
    return codes, recon


def _encode_blocks(kernel, features, codebooks, code_sq, residual: bool, decode: bool):
    """:func:`_encode` on the compiled select pass, one row block at a time.

    A block runs every level — its GEMM, then one
    :meth:`repro.native.Kernel.nearest_levels` call that scores, picks and
    moves the residual and the running decode — while its scores and
    residual stay in cache. Blocks split the rows evenly, none shorter than
    ``ENCODE_CELLS // (K + 2d)`` rows (or all ``n``), so no block is so
    short that BLAS would switch to a kernel summing in another order (a
    one-row GEMV, a small-matrix path): every score keeps the bits of the
    whole-matrix GEMM. Scratch is one block of scores and residual rows,
    allocated per call.
    """
    n, (m, k, d) = len(features), codebooks.shape
    blocks = max(1, n // max(1, ENCODE_CELLS // (k + 2 * d)))
    rows = -(-n // blocks)
    codes = np.empty((n, m), dtype=np.int64)
    recon = np.empty((n, d)) if decode and d > 1 else None
    scores, target = np.empty((rows, k)), np.empty((rows, d))
    select = kernel.nearest_levels(  # the C code walks rows: copies keep the bits
        scores, target, codes, np.ascontiguousarray(codebooks), np.ascontiguousarray(code_sq),
        recon,
    )
    for b in range(blocks):
        lo, hi = n * b // blocks, n * (b + 1) // blocks
        cross, block_target = scores[: hi - lo], target[: hi - lo]
        block_target[...] = features[lo:hi]
        for j in range(m):
            np.matmul(block_target, codebooks[j].T, out=cross)
            select(lo, hi, j, residual and j + 1 < m)
    return codes, recon
