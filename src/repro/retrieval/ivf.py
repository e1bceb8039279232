"""IVF-pruned ADC search: the coarse inverted-file layer over a quantized index.

The exhaustive paths (:func:`repro.retrieval.adc.adc_distances` and
:class:`repro.retrieval.engine.QueryEngine`) score *every* database code per
query — ``O(n_db · M)`` lookups no matter how the scan is sharded. This
module adds the standard PQ serving architecture's missing layer: a coarse
quantizer (plain :func:`repro.cluster.kmeans` over the reconstructed
database) splits the database into ``num_cells`` inverted lists, and a query
scans only the ``nprobe`` lists whose centroids sit nearest to it. Work per
query drops from ``n_db · M`` to roughly ``(nprobe / num_cells) · n_db · M``
lookups plus one tiny ``(n_q, num_cells)`` centroid scan.

Layout. Database rows are permuted so each cell is one contiguous column
range of the transposed code matrix (``codes_t``), exactly the layout the
sharded engine scans — a probe is a cheap contiguous slice, and ``ids``
maps positions back to global row numbers so returned indices match the
exhaustive paths.

Accuracy. Inside the probed cells the arithmetic is the engine's: a float32
gather-scan over the per-query lookup tables followed by the shared exact
float64 rerank (:func:`repro.retrieval.adc.rerank_exact`) of the candidate
pool by *position*, so rankings among candidates are identical to the
serial reference. Recall is lost only to *pruning* — a true neighbour
whose cell was not probed. That trade is measured, not asserted:
``repro bench --profile ivf-large`` sweeps ``nprobe`` and records the
recall@k-vs-speedup curve against the exact exhaustive oracle
(``docs/tuning.md`` explains how to choose a point on it).

Quantized lookup tables. With ``lut_dtype="uint8"`` the per-query float32
LUT is quantized to uint8 with one scale per query and one offset per
codebook (``lut ≈ offset_j + scale · q``); the scan then gathers one byte
per code instead of four and accumulates in int32, shrinking the scan
working set 4x. Because ``Σ_j lut[j, c_j] ≈ Σ_j offset_j + scale · Σ_j q``,
dequantization is two scalars per query. Quantization shifts each distance
by at most ``M · scale``, so the rerank pool keeps every candidate within
``2 · M · scale`` of the k-th smallest quantized distance and the float64
rerank then removes the error from the final ranking entirely — uint8 pays
with a wider rerank pool, not with recall. The float32 path is kept as the
reference (``lut_dtype="float32"``, the default).

Observability: the ``ivf.*`` metric family catalogued in
:mod:`repro.obs.names` (build/train/assign times, per-query probed-cell and
candidate counts, scan time, probe expansions).
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.kmeans import assign_to_centroids, kmeans
from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.adc import (
    RERANK_PAD,
    cast_tables,
    compact_code_dtype,
    gather_distances,
    merge_topk,
    query_tables,
    reconstruct,
    rerank_exact,
)
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.lut_cache import LUTCache
from repro.retrieval.search import (
    SearchSurface,
    empty_answer,
    validate_query_batch,
)

__all__ = [
    "IVFIndex",
    "default_num_cells",
    "quantize_lut",
]

#: Rows of reconstructions materialised at once during build/assignment.
ASSIGN_CHUNK = 65_536

#: Default cap on the coarse-quantizer training sample.
TRAIN_SAMPLE = 65_536


def default_num_cells(n_db: int) -> int:
    """The ``√n`` rule of thumb, clamped to ``[1, 4096]``.

    Balances the two per-query costs: the centroid scan grows with
    ``num_cells`` while the per-cell scan shrinks with it; ``√n`` equalises
    them for ``nprobe ≈ 1``.
    """
    if n_db <= 0:
        return 1
    return int(min(4096, max(1, round(np.sqrt(n_db)))))


def quantize_lut(lut32: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Quantize one query's ``(M, K)`` float32 LUT to uint8.

    Returns ``(q8, offsets, scale)`` with ``lut ≈ offsets[:, None] +
    scale · q8`` — one offset per codebook (tables have very different
    ranges when codebooks encode residuals of shrinking norm) and a single
    scale so the scan can accumulate raw integer sums.
    """
    offsets = lut32.min(axis=1)
    shifted = lut32 - offsets[:, None]
    span = float(shifted.max())
    scale = span / 255.0 if span > 0 else 1.0
    q8 = np.rint(shifted / scale).astype(np.uint8)
    return q8, offsets, scale


class IVFIndex(SearchSurface):
    """An inverted-file coarse layer over a :class:`QuantizedIndex`.

    Build with :meth:`IVFIndex.build` (trains the coarse quantizer); the
    constructor takes the already-laid-out arrays. An ``IVFIndex`` serves
    queries directly (``search`` / :meth:`search_with_distances`) and
    plugs into :class:`repro.retrieval.engine.QueryEngine` via its ``ivf=``
    parameter, which is how the serving daemon and the bench reach it.

    Attributes
    ----------
    centroids:
        ``(num_cells, d)`` coarse codebook (float64).
    cell_offsets:
        ``(num_cells + 1,)`` prefix offsets; cell ``c`` owns columns
        ``[cell_offsets[c], cell_offsets[c+1])`` of ``codes_t`` / ``ids``.
    codes_t:
        ``(M, n_db)`` compact-dtype codes, columns permuted cell-by-cell.
    ids:
        ``(n_db,)`` global database row of each permuted column.
    nprobe:
        Default number of cells probed per query.
    lut_dtype:
        ``"float32"`` (reference) or ``"uint8"`` (quantized tables).
    """

    def __init__(
        self,
        *,
        centroids: np.ndarray,
        cell_offsets: np.ndarray,
        codes_t: np.ndarray,
        ids: np.ndarray,
        norms64: np.ndarray,
        codebooks64: np.ndarray,
        nprobe: int = 8,
        lut_dtype: str = "float32",
        rerank: bool = True,
    ) -> None:
        if lut_dtype not in ("float32", "uint8"):
            raise ValueError("lut_dtype must be 'float32' or 'uint8'")
        if nprobe < 1:
            raise ValueError("nprobe must be at least 1")
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.cell_offsets = np.asarray(cell_offsets, dtype=np.int64)
        self.codes_t = codes_t
        self.ids = np.asarray(ids, dtype=np.int64)
        self.norms64 = np.asarray(norms64, dtype=np.float64)
        self.norms32 = self.norms64.astype(np.float32)
        self.codebooks64 = np.asarray(codebooks64, dtype=np.float64)
        self.nprobe = int(nprobe)
        self.lut_dtype = lut_dtype
        self.rerank = bool(rerank)
        if len(self.cell_offsets) != self.num_cells + 1:
            raise ValueError("cell_offsets must have num_cells + 1 entries")
        if self.cell_offsets[-1] != self.codes_t.shape[1]:
            raise ValueError("cell_offsets do not cover the code matrix")
        # Cached centroid norms for the probe scan.
        self._centroid_sq = (self.centroids**2).sum(axis=1)
        #: Cross-query LUT reuse (bit-identical; see repro.retrieval.lut_cache).
        self.lut_cache: LUTCache | None = LUTCache()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        index: QuantizedIndex,
        num_cells: int | None = None,
        *,
        nprobe: int = 8,
        lut_dtype: str = "float32",
        rerank: bool = True,
        train_sample: int = TRAIN_SAMPLE,
        kmeans_iterations: int = 25,
        seed: int = 0,
        centroids: np.ndarray | None = None,
        chunk_size: int = ASSIGN_CHUNK,
    ) -> "IVFIndex":
        """Train the coarse quantizer and lay out the inverted lists.

        The quantizer is :func:`repro.cluster.kmeans` over (a sample of)
        the database *reconstructions* — the vectors ADC actually ranks.
        When the sample is the whole database (``n_db <= train_sample``)
        every row is reconstructed once and k-means' own final assignments
        are the cell assignments; otherwise assignment streams the full
        database through the quantizer in ``chunk_size`` blocks, so a
        memory-mapped corpus never materialises entirely. Either way the
        layout is the one ``build(index, centroids=<those centroids>)``
        produces. Pass ``centroids`` to skip training and use a fixed
        coarse codebook (tests use this to force empty cells).
        """
        obs = get_obs()
        build_start = time.perf_counter()
        n_db = len(index)
        rng = np.random.default_rng(seed)

        train_elapsed = 0.0
        assignments = None
        if centroids is None:
            k = num_cells if num_cells is not None else default_num_cells(n_db)
            k = max(1, min(int(k), max(n_db, 1)))
            train_start = time.perf_counter()
            if n_db > train_sample:
                sample_rows = rng.choice(n_db, size=train_sample, replace=False)
                sample_rows.sort()
            else:
                sample_rows = slice(0, n_db)
            sample = _reconstruct_rows(index, sample_rows)
            if len(sample) == 0:
                centroids = np.zeros((1, index.dim))
            else:
                fit = kmeans(
                    sample, min(k, len(sample)), rng=rng, max_iterations=kmeans_iterations
                )
                centroids = fit.centroids
                if len(sample) == n_db:
                    assignments = fit.assignments
            train_elapsed = time.perf_counter() - train_start
        else:
            centroids = np.asarray(centroids, dtype=np.float64)
            if centroids.ndim != 2 or centroids.shape[1] != index.dim:
                raise ValueError(
                    f"centroids must be (num_cells, {index.dim}), "
                    f"got shape {centroids.shape}"
                )

        assign_start = time.perf_counter()
        n_cells = len(centroids)
        if assignments is None:
            assignments = np.empty(n_db, dtype=np.int64)
            for lo in range(0, n_db, chunk_size):
                hi = min(lo + chunk_size, n_db)
                rows = _reconstruct_rows(index, slice(lo, hi))
                assignments[lo:hi] = assign_to_centroids(rows, centroids)
        # Stable sort: within a cell, global ids stay ascending, so the
        # per-cell scan meets candidates in the tie-stable order.
        order = np.argsort(assignments, kind="stable")
        counts = np.bincount(assignments, minlength=n_cells)
        cell_offsets = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=cell_offsets[1:])
        # Narrow before permuting: the gather moves 1/8 of the bytes.
        code_dtype = compact_code_dtype(index.num_codewords)
        codes_t = np.ascontiguousarray(index.codes.astype(code_dtype)[order].T)
        assign_elapsed = time.perf_counter() - assign_start

        ivf = cls(
            centroids=centroids,
            cell_offsets=cell_offsets,
            codes_t=codes_t,
            ids=order,
            norms64=index.db_sq_norms[order],
            codebooks64=index.codebooks,
            nprobe=nprobe,
            lut_dtype=lut_dtype,
            rerank=rerank,
        )
        if obs.enabled:
            registry = obs.registry
            registry.histogram(metric_names.IVF_TRAIN_TIME).observe(train_elapsed)
            registry.histogram(metric_names.IVF_ASSIGN_TIME).observe(assign_elapsed)
            registry.histogram(metric_names.IVF_BUILD_TIME).observe(
                time.perf_counter() - build_start
            )
        return ivf

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.codes_t.shape[1]

    @property
    def num_cells(self) -> int:
        return len(self.centroids)

    @property
    def num_codebooks(self) -> int:
        return self.codebooks64.shape[0]

    @property
    def num_codewords(self) -> int:
        return self.codebooks64.shape[1]

    @property
    def dim(self) -> int:
        return self.codebooks64.shape[2]

    @property
    def nbytes(self) -> int:
        """Serving-side footprint: codes, id map, norms, centroids."""
        return (
            self.codes_t.nbytes
            + self.ids.nbytes
            + self.norms32.nbytes
            + self.centroids.nbytes
        )

    def cell_sizes(self) -> np.ndarray:
        """``(num_cells,)`` items per inverted list (empty cells are 0)."""
        return np.diff(self.cell_offsets)

    def matches(self, index: QuantizedIndex) -> bool:
        """Cheap identity check: same geometry as ``index``."""
        return (
            len(self) == len(index)
            and self.num_codebooks == index.num_codebooks
            and self.num_codewords == index.num_codewords
            and self.dim == index.dim
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    last_dispatch = "ivf"

    def search_with_distances(
        self,
        queries: np.ndarray,
        k: int | None = None,
        *,
        rerank: bool | None = None,
        nprobe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked ``(indices, squared distances)`` over the probed cells.

        Shapes and tie-breaking match the exhaustive paths — ``(n_q,
        min(k, n_db))``, ordered by (distance, global index) — but only
        candidates from the probed cells compete, so results are
        approximate with a measured recall (see ``docs/tuning.md``). When
        the probed cells hold fewer than ``k`` candidates the probe set
        widens in centroid-distance order until ``k`` is met, so the shape
        contract always holds. ``k=None`` (the exhaustive paths' full
        ranking) is not served by a pruned index; pass an explicit ``k``.
        """
        queries, k_eff = validate_query_batch(
            queries, k, nprobe, dim=self.dim, n_db=len(self), pruned=True
        )
        if nprobe is not None and nprobe < 1:
            raise ValueError(
                "nprobe must be at least 1 (the nprobe=0 exhaustive bypass "
                "is the QueryEngine's)"
            )
        if not (len(queries) and k_eff):
            return empty_answer(len(queries), k_eff)
        return self.scan(
            queries, self.tables(queries), k_eff, rerank=rerank, nprobe=nprobe
        )

    def tables(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The batch's ``(lut64, q_sq64)`` through this layer's LUT cache."""
        return query_tables(queries, self.codebooks64, self.lut_cache)

    def scan(
        self,
        queries: np.ndarray,
        tables: tuple[np.ndarray, np.ndarray],
        k: int,
        *,
        rerank: bool | None = None,
        nprobe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of a validated, non-empty batch given its ``tables``.

        ``1 <= k <= n_db``; the entry :class:`~repro.retrieval.engine.
        QueryEngine` routes through once the batch's tables exist.
        """
        nprobe = min(self.nprobe if nprobe is None else int(nprobe), self.num_cells)
        use_rerank = self.rerank if rerank is None else bool(rerank)
        n_db = len(self)
        n_q = len(queries)

        obs = get_obs()
        scan_start = time.perf_counter() if obs.enabled else 0.0

        lut64, q_sq64 = tables
        lut32, q_sq32 = cast_tables(lut64, q_sq64, np.float32)

        # Probe scan: rank every centroid per query (num_cells is small, a
        # full argsort costs microseconds and probe expansion needs the
        # complete order anyway).
        probe_order = np.argsort(
            self._centroid_sq[None, :] - 2.0 * (queries @ self.centroids.T),
            axis=1,
            kind="stable",
        )

        shard_k = min(k + (RERANK_PAD if use_rerank else 0), n_db)
        quantize_elapsed = 0.0
        probed_counts = np.empty(n_q, dtype=np.int64)
        candidate_counts = np.empty(n_q, dtype=np.int64)
        expansions = 0
        out_indices = np.empty((n_q, k), dtype=np.int64)
        out_values = np.empty((n_q, k), dtype=np.float64)
        for qi in range(n_q):
            # Widen past nprobe only if the probed cells cannot fill k —
            # empty cells make this reachable even at moderate nprobe.
            n_cells_used = nprobe
            cand = self._gather_candidates(probe_order[qi], n_cells_used)
            while len(cand) < shard_k and n_cells_used < self.num_cells:
                n_cells_used = min(self.num_cells, max(n_cells_used * 2, 1))
                cand = self._gather_candidates(probe_order[qi], n_cells_used)
            if n_cells_used > nprobe:
                expansions += 1
            probed_counts[qi] = n_cells_used
            candidate_counts[qi] = len(cand)

            scale = 0.0
            if self.lut_dtype == "uint8":
                q_start = time.perf_counter() if obs.enabled else 0.0
                q8, offsets, scale = quantize_lut(lut32[qi])
                if obs.enabled:
                    quantize_elapsed += time.perf_counter() - q_start
                acc = q8[0, self.codes_t[0, cand]].astype(np.int32)
                for j in range(1, self.num_codebooks):
                    acc += q8[j, self.codes_t[j, cand]]
                cross = offsets.sum() + scale * acc.astype(np.float32)
                d = q_sq32[qi] + self.norms32[cand] - 2.0 * cross
                np.maximum(d, 0.0, out=d)
            else:
                d = gather_distances(
                    lut32[qi : qi + 1], q_sq32[qi : qi + 1],
                    self.codes_t, self.norms32, cand[None, :],
                )[0]

            # Select by *position* in the permuted layout; the id map is
            # applied once, to the survivors.
            take = min(shard_k, len(cand))
            if take < len(cand):
                if self.lut_dtype == "uint8" and use_rerank:
                    # Quantization shifts each distance by at most M·scale/2
                    # per table lookup times the factor 2 on the cross term,
                    # so any true top-k candidate sits within 2·M·scale of
                    # the k-th smallest quantized distance. Keeping that
                    # whole band makes the float64 rerank exact within the
                    # probed cells — uint8 trades rerank-pool size, not
                    # recall, against the float32 reference.
                    kth = np.partition(d, k - 1)[k - 1]
                    margin = 2.0 * self.num_codebooks * scale
                    keep = np.flatnonzero(d <= kth + margin)
                else:
                    keep = np.argpartition(d, take - 1)[:take]
                cand, d = cand[keep], d[keep]
            sel_pos = cand[None, :]
            sel_ids = self.ids[sel_pos]
            if use_rerank:
                sel_ids, sel_d = rerank_exact(
                    lut64[qi : qi + 1], q_sq64[qi : qi + 1],
                    self.codes_t, self.norms64, sel_pos, sel_ids, k,
                )
            else:
                sel_ids, sel_d = merge_topk([d[None, :]], [sel_ids], k)
            out_indices[qi] = sel_ids[0]
            out_values[qi] = sel_d[0]

        if obs.enabled:
            registry = obs.registry
            elapsed = time.perf_counter() - scan_start
            registry.histogram(metric_names.IVF_SCAN_TIME).observe(elapsed)
            if self.lut_dtype == "uint8":
                registry.histogram(metric_names.IVF_LUT_QUANTIZE_TIME).observe(
                    quantize_elapsed
                )
            cells_hist = registry.histogram(metric_names.IVF_CELLS_PROBED)
            cand_hist = registry.histogram(metric_names.IVF_CANDIDATES_SCANNED)
            for qi in range(n_q):
                cells_hist.observe(float(probed_counts[qi]))
                cand_hist.observe(float(candidate_counts[qi]))
            registry.counter(metric_names.IVF_BATCHES_TOTAL).inc()
            if expansions:
                registry.counter(metric_names.IVF_PROBES_EXPANDED).inc(expansions)
        return out_indices, out_values

    def _gather_candidates(self, cell_order: np.ndarray, n_cells: int) -> np.ndarray:
        """Column positions of every item in the first ``n_cells`` cells."""
        parts = []
        for cell in cell_order[:n_cells]:
            lo, hi = self.cell_offsets[cell], self.cell_offsets[cell + 1]
            if hi > lo:
                parts.append(np.arange(lo, hi))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


def _reconstruct_rows(index: QuantizedIndex, rows: np.ndarray | slice) -> np.ndarray:
    """Decode selected database rows without materialising the full matrix."""
    return reconstruct(index.codes[rows], index.codebooks)
