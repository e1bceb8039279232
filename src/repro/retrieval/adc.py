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
  attached), cast once per scan dtype by :func:`cast_tables`;
- :func:`scan_block` / :func:`scan_topk` — the blocked gather-accumulate
  kernel over a transposed ``(M, n)`` code block and its tie-stable top-k;
- :func:`gather_distances` / :func:`rerank_exact` — the same arithmetic at
  scattered candidate *positions*, and its float64 re-scoring pass;
- :func:`merge_topk` — the tie-stable reduction on ``(distance, id)``.

:func:`adc_distances` stays the float64 reference every one of them is
tested against.

The two stages are observable separately (:mod:`repro.obs`): with
observability enabled, :func:`query_tables` emits the lookup-table build
time (``adc.lut.build_time_s``) and :func:`adc_distances` the table-scan
time (``adc.scan.time_s``) and the realised scan throughput in code lookups
per second (``adc.scan.codes_per_s``) — the quantities §IV's cost model
predicts and the benchmark harness (``repro bench``) reports.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.search import topk_tie_stable

#: Extra candidates every scanned block carries into the float64 rerank.
RERANK_PAD = 8

#: Columns gathered per codebook at once, so scan temporaries stay cache-sized.
BLOCK_ROWS = 8192


def validate_codes(codes: np.ndarray, num_codebooks: int, num_codewords: int) -> np.ndarray:
    """Check code array shape/dtype/range and return it as int64.

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
    return codes.astype(np.int64)


def reconstruct(codes: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Additive reconstruction ``o_i = Σ_j C_j[b_i[j]]``.

    Parameters
    ----------
    codes:
        ``(n, M)`` codeword ids.
    codebooks:
        ``(M, K, d)`` stacked codebooks.
    """
    codebooks = np.asarray(codebooks, dtype=np.float64)
    m, k, _ = codebooks.shape
    codes = validate_codes(codes, m, k)
    # Gather each codebook's selected rows then sum over the M axis.
    gathered = codebooks[np.arange(m)[None, :], codes]  # (n, M, d)
    return gathered.sum(axis=1)


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


def cast_tables(
    lut64: np.ndarray, q_sq64: np.ndarray, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous scan-dtype copies of :func:`query_tables`' output.

    A float64 scan gets the inputs back unchanged.
    """
    return (
        np.ascontiguousarray(lut64, dtype=dtype),
        q_sq64.astype(dtype, copy=False),
    )


def scan_block(lut, codes_t, lo, hi):
    """``Σ_j lut[:, j, codes[j]]`` over columns ``[lo, hi)``, blocked.

    ``lut`` is ``(n_q, M, K)`` and ``codes_t`` a transposed ``(M, n)`` code
    block; the gather runs one codebook at a time on at most
    :data:`BLOCK_ROWS` columns. Summation starts from the first gathered
    table (``0 + x == x`` in IEEE), matching :func:`adc_distances`'
    left-to-right accumulation bit for bit in float64.
    """
    n_q, m, _ = lut.shape
    out = np.empty((n_q, hi - lo), dtype=lut.dtype)
    for start in range(lo, hi, BLOCK_ROWS):
        end = min(start + BLOCK_ROWS, hi)
        block = out[:, start - lo : end - lo]
        np.take(lut[:, 0, :], codes_t[0, start:end], axis=1, out=block)
        for j in range(1, m):
            block += lut[:, j, :].take(codes_t[j, start:end], axis=1)
    return out


def scan_topk(lut, q_sq, codes_t, norms, lo, hi, k):
    """Distances + tie-stable top-k of one code block, in ``lut``'s dtype.

    Returns ``(values, columns, scan_seconds, block_seconds)`` with columns
    counted from 0 across the whole of ``codes_t`` (``lo`` included).
    ``scan_seconds`` covers the table gather and distance assembly — the
    work ``adc.scan.time_s`` measures — and ``block_seconds`` adds the
    top-k selection. A ``+inf`` norm (a tombstoned row) scans at ``+inf``.
    """
    start = time.perf_counter()
    cross = scan_block(lut, codes_t, lo, hi)
    d = q_sq[:, None] + norms[lo:hi][None, :] - 2.0 * cross
    np.maximum(d, 0.0, out=d)
    scan_seconds = time.perf_counter() - start
    local, vals = topk_tie_stable(d, k)
    return vals, local + lo, scan_seconds, time.perf_counter() - start


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


def gather_distances(lut, q_sq, codes_t, norms, positions):
    """Eqn. 24 at ``(n_q, c)`` candidate ``positions``, in ``lut``'s dtype.

    The same left-to-right accumulation as :func:`scan_block`, gathered at
    arbitrary columns of ``codes_t`` / ``norms`` instead of a contiguous
    range — the IVF layer's probed-cell scan and every exact rerank.
    """
    rows = np.arange(len(positions))[:, None]
    cross = lut[rows, 0, codes_t[0][positions]]
    for j in range(1, len(codes_t)):
        cross = cross + lut[rows, j, codes_t[j][positions]]
    d = q_sq[:, None] + norms[positions] - 2.0 * cross
    np.maximum(d, 0.0, out=d)
    return d


def rerank_exact(lut64, q_sq64, codes_t, norms64, positions, ids, k):
    """Re-score candidates in float64 and keep the tie-stable top-k.

    ``positions`` are ``(n_q, c)`` columns of ``codes_t`` / ``norms64``;
    ``ids`` the ids those columns are returned (and tie-broken) under — the
    same array for a flat layout, the id map's image for a permuted one.
    Cost is ``O(n_q · c · M)`` — negligible next to the scan — and restores
    the :func:`adc_distances` ranking among the candidates.
    """
    d = gather_distances(lut64, q_sq64, codes_t, norms64, positions)
    return merge_topk([d], [ids], k)


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
    codebook independently encodes the original vector.
    """
    features = np.asarray(features, dtype=np.float64)
    codebooks = np.asarray(codebooks, dtype=np.float64)
    m, k, d = codebooks.shape
    n = len(features)
    codes = np.empty((n, m), dtype=np.int64)
    target = features.copy()
    # Fused formulation: buffers are allocated once and every level runs
    # ``cross·(−2) + ‖c‖²`` in place. Bit-identical to the textbook
    # ``c_sq − 2·target@C.T`` — multiplying by −2.0 is an exact scale/sign
    # flip and IEEE addition is commutative — so argmin ties break the same.
    code_sq = (codebooks * codebooks).sum(axis=2)  # (M, K)
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
    return codes
