"""IVF-pruned ADC search: the coarse inverted-file layer over a quantized index.

The exhaustive paths (:func:`repro.retrieval.adc.adc_distances` and
:class:`repro.retrieval.engine.QueryEngine`) score *every* database code per
query — ``O(n_db · M)`` lookups however fast each one is. This
module adds the standard PQ serving architecture's missing layer: a coarse
quantizer (plain :func:`repro.cluster.kmeans` over the reconstructed
database) splits the database into ``num_cells`` inverted lists, and a query
scans only the ``nprobe`` lists whose centroids sit nearest to it. Work per
query drops from ``n_db · M`` to roughly ``(nprobe / num_cells) · n_db · M``
lookups plus one tiny ``(n_q, num_cells)`` centroid scan.

Layout. Database rows are permuted so each cell is one contiguous column
range of the transposed code matrix (``codes_t``), exactly the layout the
flat engine scans — a probe is a ``[lo, hi)`` column range, and ``ids``
maps positions back to global row numbers so returned indices match the
exhaustive paths.

Accuracy. Like the flat engine, this layer only provides column ranges to
the shared search stage: each query's probed cells, in probe order, are the
ranges :func:`repro.retrieval.adc.search_ranges` walks in float32 for the
whole batch in one call (with the compiled kernel the probe itself runs in
that call, from the batch's BLAS centroid product; :func:`probe_cells` is its
NumPy reference and fallback); each query's ``k + RERANK_PAD`` survivors are
re-scored in float64 at their layout positions and mapped through ``ids``
inside that call, so rankings among candidates are the serial reference's.
Recall is lost only to *pruning* — a true neighbour whose cell was not
probed. That trade is measured, not asserted: ``repro bench --profile
ivf-large`` sweeps ``nprobe`` and records recall@k against speedup over the
exact exhaustive oracle (``docs/tuning.md`` explains how to pick a point).

Observability: the ``ivf.*`` metric family catalogued in
:mod:`repro.obs.names` (build/train/assign times, per-query probed-cell and
candidate counts, scan time, probe expansions).
"""

from __future__ import annotations

import time

import numpy as np

from repro import native
from repro.cluster.kmeans import assign_to_centroids, kmeans
from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.adc import (
    RERANK_PAD,
    ScanLayout,
    query_tables,
    reconstruct,
    seal_scan_codes,
    search_ranges,
)
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.lut_cache import LUTCache
from repro.retrieval.search import SearchSurface, empty_answer, validate_query_batch

__all__ = ["IVFIndex", "default_num_cells", "probe_cells"]

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
    layout:
        ``codes_t`` with its float32 and float64 norms, bound once for
        :func:`repro.retrieval.adc.search_ranges`.
    nprobe:
        Default number of cells probed per query.
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
        rerank: bool = True,
    ) -> None:
        if nprobe < 1:
            raise ValueError("nprobe must be at least 1")
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.cell_offsets = np.asarray(cell_offsets, dtype=np.int64)
        self.codes_t = np.ascontiguousarray(codes_t)
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        self.norms64 = np.ascontiguousarray(norms64, dtype=np.float64)
        self.norms32 = self.norms64.astype(np.float32)
        self.codebooks64 = np.asarray(codebooks64, dtype=np.float64)
        self.nprobe = int(nprobe)
        self.rerank = bool(rerank)
        if self.codes_t.ndim != 2 or len(self.codes_t) != self.num_codebooks:
            raise ValueError(f"codes_t must be (M, n), got shape {self.codes_t.shape}")
        # Range-checked once and frozen: the scan kernel's gathers trust it.
        seal_scan_codes(self.codes_t, self.num_codewords)
        if not len(self.ids) == len(self.norms64) == len(self):
            raise ValueError("ids and norms64 must have one entry per code column")
        if len(self.cell_offsets) != self.num_cells + 1:
            raise ValueError("cell_offsets must have num_cells + 1 entries")
        if self.cell_offsets[0] != 0 or self.cell_offsets[-1] != len(self):
            raise ValueError("cell_offsets do not cover the code matrix")
        if (self.cell_sizes() < 0).any():
            raise ValueError("cell_offsets must be non-decreasing")
        # What the probe reads besides the batch: the centroid norms and the
        # cell offsets, contiguous for the compiled kernel.
        self._cells = (
            (self.centroids**2).sum(axis=1),
            np.ascontiguousarray(self.cell_offsets),
        )
        self.layout = ScanLayout(
            self.codes_t, self.norms32, self.norms64, self.num_codewords, fused=False
        )
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
        # The permuted layout is different data from the store: one gather.
        codes_t = np.take(index.codes.T, order, axis=1)
        assign_elapsed = time.perf_counter() - assign_start

        ivf = cls(
            centroids=centroids,
            cell_offsets=cell_offsets,
            codes_t=codes_t,
            ids=order,
            norms64=index.db_sq_norms[order],
            codebooks64=index.codebooks,
            nprobe=nprobe,
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
        arrays = (self.codes_t, self.ids, self.norms32, self.centroids)
        return sum(a.nbytes for a in arrays)

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
        lut64, q_sq64 = tables
        k_scan = k + RERANK_PAD if use_rerank else k

        obs = get_obs()
        scan_start = time.perf_counter() if obs.enabled else 0.0
        # The centroid scan stays one BLAS GEMM; ranking its output into each
        # query's probe is the compiled search call's first step.
        cross = queries @ self.centroids.T
        kernel = native.load()
        if kernel is not None:
            out_indices, out_values, (cells_used, candidates) = kernel.search_cells(
                lut64, q_sq64, self.layout, cross, self._cells, nprobe, self.ids,
                k_scan, k, use_rerank,
            )
        else:
            ranges, cells_used, candidates = probe_cells(
                cross, *self._cells, nprobe, min(k_scan, len(self))
            )
            # The id map is applied to the survivors only, inside the search.
            out_indices, out_values = search_ranges(
                lut64, q_sq64, self.layout, ranges, k, ids=self.ids, rerank=use_rerank
            )

        if obs.enabled:
            registry = obs.registry
            elapsed = time.perf_counter() - scan_start
            registry.histogram(metric_names.IVF_SCAN_TIME).observe(elapsed)
            cells_hist = registry.histogram(metric_names.IVF_CELLS_PROBED)
            cand_hist = registry.histogram(metric_names.IVF_CANDIDATES_SCANNED)
            for used, held in zip(cells_used.tolist(), candidates.tolist()):
                cells_hist.observe(float(used))
                cand_hist.observe(float(held))
            registry.counter(metric_names.IVF_BATCHES_TOTAL).inc()
            expansions = int((cells_used > nprobe).sum())
            if expansions:
                registry.counter(metric_names.IVF_PROBES_EXPANDED).inc(expansions)
        return out_indices, out_values


def probe_cells(
    cross: np.ndarray,
    centroid_sq: np.ndarray,
    cell_offsets: np.ndarray,
    nprobe: int,
    need: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's probed cells as column ranges: the coarse probe on NumPy.

    ``cross`` is a batch's ``queries @ centroids.T``. Cells are ranked by
    ``‖c‖² − 2·⟨q, c⟩`` (a stable sort: ties by cell); a query probes its
    ``nprobe`` first, widening by doubling until they hold ``need`` rows —
    empty cells make that reachable even at moderate ``nprobe``. Returns
    ``(ranges, cells_used, candidates)``: ``(n_q, width, 2)`` ``[lo, hi)``
    column ranges in probe order, empty past a query's own count (``width``
    is the widest count), and each query's cells probed and rows they hold.
    The compiled kernel's ``search_cells`` does the same operations in C; this
    is its reference and the no-compiler path.
    """
    num_cells = len(centroid_sq)
    probe_order = np.argsort(centroid_sq[None, :] - 2.0 * cross, axis=1, kind="stable")
    # What a query's first c cells hold, in probe order, as a running sum.
    block_ends = np.cumsum(np.diff(cell_offsets)[probe_order], axis=1)
    cells_used = np.empty(len(cross), dtype=np.int64)
    for qi, ends in enumerate(block_ends):
        used = nprobe
        while ends[used - 1] < need and used < num_cells:
            used = min(num_cells, used * 2)
        cells_used[qi] = used
    width = cells_used.max()
    cell_ranges = np.stack((cell_offsets[:-1], cell_offsets[1:]), axis=1)
    ranges = cell_ranges[probe_order[:, :width]]
    ranges[np.arange(width) >= cells_used[:, None]] = 0
    candidates = block_ends[np.arange(len(cross)), cells_used - 1]
    return ranges, cells_used, candidates


def _reconstruct_rows(index: QuantizedIndex, rows: np.ndarray | slice) -> np.ndarray:
    """Decode selected database rows without materialising the full matrix."""
    return reconstruct(index.codes[rows], index.codebooks)
