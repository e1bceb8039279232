"""Sharded, multi-worker ADC query engine: the serving path of §IV at speed.

:func:`repro.retrieval.adc.adc_distances` is the *reference* scan — float64,
one process, and a full ``(n_q, n_db)`` temporary per codebook. This module
is the deployable version of the same Eqn. 24 arithmetic:

- :class:`ShardedIndex` is a :class:`~repro.retrieval.index.QuantizedIndex`
  laid out for scanning (:func:`repro.retrieval.adc.scan_codes`): a
  ``(columns, n_db)`` code array — the index's own code store, not a copy
  (one column per codebook in the narrowest unsigned dtype ``K`` permits:
  uint8 for K ≤ 256, uint16 for K ≤ 65 536), or, where
  :func:`~repro.retrieval.adc.fuses_pairs` says the shape pays for it, a new
  array with one column per codebook *pair* holding the joint code
  ``c_{2j}·K + c_{2j+1}`` in the dtype twice as wide (the same bytes per
  item) — range-checked once and frozen, norms kept in both the scan dtype
  and float64, bound once for the compiled search (float32), and the rows
  split into contiguous shards.
- :class:`QueryEngine` is the flat range provider of the shared ADC stages
  (:mod:`repro.retrieval.adc`). In-process, a float32 layout is one range
  handed to :func:`~repro.retrieval.adc.search_ranges` with the layout's
  :class:`~repro.retrieval.adc.ScanLayout` (bound once, when the
  :class:`ShardedIndex` is built): tables, scan, float64 rerank and answer
  in one compiled call, or its NumPy composition where no compiler exists;
  a float64 layout's tie-stable scan (:func:`~repro.retrieval.adc.scan_topk`)
  is its answer. Under the pool each shard is scanned by a worker and the
  candidates are merged across shards with the tie-stable reduction
  (distance first, global index second — exactly the order a full stable
  argsort of the serial distance matrix produces), then reranked.
- Shards can be scanned by a ``multiprocessing`` pool whose workers attach to
  shared-memory code/norm buffers (re-verifying the code range as they do),
  so the database is materialised once per machine, not once per worker
  (the buffers are the :class:`ShardedIndex`'s, whatever engines scan it).
  The pool engages only when it can pay:
  ``min(workers, cpu_count, num_shards) > 1`` and the batch clears
  ``min_parallel_codes`` of scan work (``parallel="force"`` overrides, which
  is what the smoke test uses; ``parallel="never"`` pins in-process).

Exactness. With ``dtype=np.float64`` the layout is never fused and the
kernel reproduces the reference scan's summation order, so distances and
rankings are *identical* to the serial path. The default
``dtype=np.float32`` scans in float32 for throughput — over fused tables
when the layout is fused, which changes only float32 rounding — then
(``rerank=True``) re-scores the merged candidate pool — each shard
contributes ``k + RERANK_PAD`` candidates — against the float64 tables
(joint codes decoded with ``divmod(code, K)`` at those positions), which
restores serial-exact rankings unless float32 error exceeds the true
distance gap for ``RERANK_PAD`` items at once (never observed;
property-tested across seeds). With ``rerank=False`` rankings follow raw
float32 distances: within float32 tolerance of serial, top-k sets identical
on the benchmark profiles.

Observability: the engine feeds the same ``adc.lut.build_time_s`` /
``adc.scan.time_s`` / ``adc.scan.codes_per_s`` instruments as the serial
scan (``codes_per_s`` counts the logical ``n_q·n·M`` lookups whatever the
layout gathers, so one metric compares every path), plus the ``engine.*``
family catalogued in :mod:`repro.obs.names`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing import get_context
from multiprocessing import shared_memory

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.adc import (
    RERANK_PAD,
    ScanLayout,
    cast_tables,
    compact_code_dtype,
    fuses_pairs,
    merge_topk,
    query_tables,
    rerank_exact,
    scan_codes,
    scan_tables,
    scan_topk,
    search_ranges,
    seal_scan_codes,
)
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.lut_cache import DEFAULT_CAPACITY as LUT_CACHE_CAPACITY
from repro.retrieval.lut_cache import LUTCache
from repro.retrieval.search import (
    SearchSurface,
    empty_answer,
    topk_tie_stable,
    validate_query_batch,
)

__all__ = [
    "QueryEngine",
    "ShardedIndex",
    "compact_code_dtype",
    "merge_topk",
    "shard_bounds",
    "topk_tie_stable",
]

#: Default scan work (``n_q · n_db · M`` lookups) below which ``"auto"``
#: dispatch keeps the batch in-process — pool IPC costs milliseconds, and a
#: batch this small scans in less.
MIN_PARALLEL_CODES = 2_000_000


def shard_bounds(n_items: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` row ranges splitting ``n_items`` evenly.

    Sizes differ by at most one row; empty shards are never produced (the
    shard count is clamped to ``n_items`` when the database is smaller).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if n_items == 0:
        return [(0, 0)]
    num_shards = min(num_shards, n_items)
    edges = np.linspace(0, n_items, num_shards + 1).astype(np.int64)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(num_shards)]


# ----------------------------------------------------------------------
# Worker-side state: arrays attached from shared memory once per worker.
# ----------------------------------------------------------------------
_WORKER: dict = {}


def _attach(name, shape, dtype):
    shm = shared_memory.SharedMemory(name=name)
    return shm, np.ndarray(shape, dtype=dtype, buffer=shm.buf)


def _init_worker(
    codes_name, codes_shape, codes_dtype, table_width, norms_name, norms_dtype
):
    codes_shm, codes_t = _attach(codes_name, codes_shape, codes_dtype)
    norms_shm, norms = _attach(norms_name, (codes_shape[1],), norms_dtype)
    _WORKER["codes_t"] = seal_scan_codes(codes_t, table_width)
    _WORKER["norms"] = norms
    _WORKER["shms"] = (codes_shm, norms_shm)  # keep buffers alive


def _pool_scan_shard(args):
    lut, q_sq, lo, hi, k = args
    codes_t = _WORKER["codes_t"]
    tables, q_sq = scan_tables(lut, q_sq, lut.dtype, len(codes_t) < lut.shape[1])
    return scan_topk(tables, q_sq, codes_t, _WORKER["norms"], [(lo, hi)], k)


class ShardedIndex:
    """A :class:`QuantizedIndex` re-laid for sharded scanning.

    ``codes_t`` is the frozen :func:`~repro.retrieval.adc.scan_codes`
    layout: ``(M, n_db)`` compact codeword ids, or — when ``fused``, decided
    here from ``(scan_dtype, M, K, n_db)`` by
    :func:`~repro.retrieval.adc.fuses_pairs` and by nothing else —
    ``(M/2, n_db)`` joint pair codes indexing ``table_width = K²``-entry
    fused tables; an unfused layout is the index's code store itself, not a
    copy. Norms are kept in the scan dtype and, for the exact rerank,
    float64. A float32 layout is bound here, once, for the compiled search
    (``layout``, an :class:`~repro.retrieval.adc.ScanLayout`); a float64
    one has ``layout = None`` and is scanned by ``scan_topk``. ``bounds``
    are the contiguous row shards. Read-only once built, so any number of
    engines may scan one layout.
    """

    def __init__(
        self,
        index: QuantizedIndex,
        num_shards: int,
        scan_dtype: np.dtype = np.float32,
    ) -> None:
        scan_dtype = np.dtype(scan_dtype)
        if scan_dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("scan_dtype must be float32 or float64")
        self.num_codebooks = index.num_codebooks
        self.num_codewords = index.num_codewords
        self.dim = index.dim
        self.scan_dtype = scan_dtype
        self.fused = fuses_pairs(
            scan_dtype, index.num_codebooks, index.num_codewords, len(index)
        )
        self.codes_t = scan_codes(index.codes, index.num_codewords, self.fused)
        self.norms64 = np.ascontiguousarray(index.db_sq_norms, dtype=np.float64)
        self.norms = self.norms64.astype(scan_dtype)
        self.codebooks64 = np.ascontiguousarray(index.codebooks, dtype=np.float64)
        self.bounds = shard_bounds(self.codes_t.shape[1], num_shards)
        # The in-process scan's one range. Pool workers scan their
        # shared-memory copies unbound; the parent scans these arrays.
        self.full_range = np.array([(0, len(self))], dtype=np.int64)
        self.layout = None
        if scan_dtype == np.dtype(np.float32):
            self.layout = ScanLayout(
                self.codes_t, self.norms, self.norms64, self.num_codewords, self.fused
            )
        # The shared-memory copy pool workers attach to: made for the first
        # engine that pools, unlinked when the last one closes.
        self._shms: list[shared_memory.SharedMemory] = []
        self._sharers = 0
        self._share_lock = threading.Lock()

    def __len__(self) -> int:
        return self.codes_t.shape[1]

    def share(self) -> tuple:
        """:func:`_init_worker`'s arguments for the layout's shared-memory
        copy, made on the first call; pair each call with an :meth:`unshare`."""
        with self._share_lock:
            if not self._shms:
                for array in (self.codes_t, self.norms):
                    shm = shared_memory.SharedMemory(create=True, size=array.nbytes)
                    np.ndarray(array.shape, array.dtype, buffer=shm.buf)[:] = array
                    self._shms.append(shm)
            self._sharers += 1
            codes_shm, norms_shm = self._shms
            return (
                codes_shm.name, self.codes_t.shape, self.codes_t.dtype,
                self.table_width, norms_shm.name, self.norms.dtype,
            )

    def unshare(self) -> None:
        """Drop one :meth:`share`; the last one out frees the buffers."""
        with self._share_lock:
            self._sharers -= 1
            while self._shms and not self._sharers:
                shm = self._shms.pop()
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    @property
    def num_shards(self) -> int:
        return len(self.bounds)

    @property
    def table_width(self) -> int:
        """Entries of each lookup table ``codes_t`` indexes: ``K``, or ``K²``."""
        return self.num_codewords ** (2 if self.fused else 1)

    @property
    def nbytes(self) -> int:
        """Scan-side footprint: compact codes plus one norm per item."""
        return self.codes_t.nbytes + self.norms.nbytes

    def matches(self, index: QuantizedIndex) -> bool:
        """Cheap identity check: same geometry as ``index``."""
        return (
            len(self) == len(index)
            and self.num_codebooks == index.num_codebooks
            and self.num_codewords == index.num_codewords
            and self.dim == index.dim
        )


class QueryEngine(SearchSurface):
    """Serve ADC top-k queries over a sharded index, optionally in parallel.

    Parameters
    ----------
    index:
        The :class:`QuantizedIndex` to serve (or a prebuilt
        :class:`ShardedIndex`).
    workers:
        Worker processes to scan shards with. The *effective* pool size is
        ``min(workers, cpu_count, num_shards)``; 1 means in-process.
    num_shards:
        Row shards. Defaults to ``2 × max(workers, 1)`` so a pool always has
        spare shards to balance with.
    dtype:
        Scan dtype. float64 reproduces the serial reference scan exactly;
        float32 (default) is the fast path, made serial-exact by ``rerank``.
    rerank:
        After a float32 scan, re-score merged candidates against the float64
        tables so returned rankings match the serial float64 path. Ignored
        for float64 scans (already exact).
    parallel:
        ``"auto"`` (pool only when it can pay), ``"force"``, or ``"never"``.
    min_parallel_codes:
        ``"auto"`` work threshold, in table lookups per batch.
    task_timeout_s:
        Upper bound on one pool dispatch. A crashed or hung worker would
        otherwise block the query forever (``Pool`` does not detect dead
        children); when the bound trips — or the dispatch raises — the pool
        is terminated, the batch is re-served by the in-process serial scan
        (``last_dispatch == "in-process-fallback"``), and the next parallel
        batch rebuilds a fresh pool. ``None`` disables the bound.
    ivf:
        Optional coarse inverted-file layer
        (:mod:`repro.retrieval.ivf`): a prebuilt
        :class:`~repro.retrieval.ivf.IVFIndex` over the same index (share
        one across replicas — the layout is read-only), or an ``int`` cell
        count to train one here. With an IVF layer attached, searches
        probe only the ``nprobe`` nearest cells instead of scanning every
        shard — approximate, with measured recall (``docs/tuning.md``).
        Per-call ``nprobe=0`` bypasses the layer for an exact exhaustive
        answer from the same engine.
    nprobe:
        Default cells probed per query when ``ivf`` is set (falls back to
        the IVF index's own default).
    lut_cache:
        Capacity of the cross-query LUT cache
        (:class:`repro.retrieval.lut_cache.LUTCache`): repeated query
        vectors reuse their cached float64 lookup-table rows instead of
        rebuilding them, bit-identically. ``None``/``0`` disables reuse.

    Use as a context manager, or call :meth:`close` — the pool and its
    shared-memory buffers are released explicitly, not by the GC.
    """

    def __init__(
        self,
        index: QuantizedIndex | ShardedIndex,
        *,
        workers: int = 1,
        num_shards: int | None = None,
        dtype: np.dtype = np.float32,
        rerank: bool = True,
        parallel: str = "auto",
        min_parallel_codes: int = MIN_PARALLEL_CODES,
        task_timeout_s: float | None = 30.0,
        ivf=None,
        nprobe: int | None = None,
        lut_cache: int | None = LUT_CACHE_CAPACITY,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if parallel not in ("auto", "force", "never"):
            raise ValueError("parallel must be 'auto', 'force', or 'never'")
        if num_shards is None:
            num_shards = 2 * max(workers, 1)
        if isinstance(index, ShardedIndex):
            self.sharded = index
        else:
            self.sharded = ShardedIndex(index, num_shards, scan_dtype=dtype)
        self.workers = workers
        self.rerank = bool(rerank) and self.sharded.scan_dtype == np.dtype(np.float32)
        self.parallel = parallel
        self.min_parallel_codes = int(min_parallel_codes)
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive (or None)")
        self.task_timeout_s = task_timeout_s
        if isinstance(ivf, int):
            from repro.retrieval.ivf import IVFIndex

            if not isinstance(index, QuantizedIndex):
                raise ValueError(
                    "building an IVF layer here needs the QuantizedIndex; "
                    "pass a prebuilt IVFIndex when constructing from a "
                    "ShardedIndex"
                )
            ivf = IVFIndex.build(index, num_cells=ivf, rerank=rerank)
        if ivf is not None and not ivf.matches(self.sharded):
            raise ValueError("ivf was built over an index with different geometry")
        self.ivf = ivf
        if nprobe is not None and nprobe < 1:
            raise ValueError("nprobe must be at least 1 (0 is per-call only)")
        self.nprobe = nprobe
        self.lut_cache = LUTCache(lut_cache) if lut_cache else None
        # "in-process" | "process-pool" | "in-process-fallback" | "ivf"
        self.last_dispatch = "in-process"
        self._pool = None
        self._worker_args: tuple | None = None  # set once this engine pools
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Terminate the worker pool and let go of the shared-memory buffers."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._worker_args is not None:
            self._worker_args = None
            self.sharded.unshare()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    @property
    def n_db(self) -> int:
        """Database rows this engine serves."""
        return len(self.sharded)

    @property
    def dim(self) -> int:
        return self.sharded.dim

    def effective_workers(self) -> int:
        """Pool size the dispatcher would use: capped by cores and shards."""
        cores = os.cpu_count() or 1
        return max(1, min(self.workers, cores, self.num_shards))

    def matches(self, index: QuantizedIndex) -> bool:
        return self.sharded.matches(index)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _use_pool(self, n_queries: int) -> bool:
        if self._closed:
            raise RuntimeError("engine is closed")
        if self.parallel == "never" or self.num_shards < 2:
            return False
        if self.parallel == "force":
            return self.workers > 1
        if self.effective_workers() < 2:
            return False
        work = n_queries * len(self.sharded) * self.sharded.num_codebooks
        return work >= self.min_parallel_codes

    def _abandon_pool(self) -> None:
        """Terminate a misbehaving pool without touching shared memory.

        The in-process fallback scans the layout's own arrays; a later pool
        rebuild attaches to the same buffers (only :meth:`close` drops them).
        """
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - teardown of a wedged pool
            pass

    def _ensure_pool(self):
        if self._pool is not None:
            return self._pool
        ctx = get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        if self._worker_args is None:
            self._worker_args = self.sharded.share()
        self._pool = ctx.Pool(
            min(self.workers, self.num_shards),
            initializer=_init_worker,
            initargs=self._worker_args,
        )
        return self._pool

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search_with_distances(
        self,
        queries: np.ndarray,
        k: int | None = None,
        *,
        rerank: bool | None = None,
        nprobe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked ``(indices, squared distances)`` per query.

        ``k=None`` returns the full ranking; otherwise ``(n_q, min(k,
        n_db))``. Rankings are tie-stable on (distance, index) — the order
        the serial float64 scan's stable argsort produces. ``rerank``
        overrides the engine-level setting for this call only: a degraded
        server passes ``rerank=False`` to skip the float64 re-scoring pass
        and serve raw float32 rankings cheaply. With an IVF layer attached
        (``ivf=``), ``nprobe`` overrides the probe width for this call;
        ``nprobe=0`` bypasses the layer and serves the exact exhaustive
        scan. Without an IVF layer any ``nprobe`` raises ``ValueError``.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        probes = self._probes(nprobe)
        queries, k_eff = validate_query_batch(
            queries,
            k,
            nprobe,
            dim=self.dim,
            n_db=self.n_db,
            has_ivf=self.ivf is not None,
            pruned=bool(probes),
        )
        if not (len(queries) and k_eff):
            return empty_answer(len(queries), k_eff)
        return self.scan(
            queries,
            self.tables(queries, probes),
            k_eff,
            rerank=rerank,
            nprobe=probes,
        )

    def _probes(self, nprobe: int | None) -> int:
        """IVF cells a call probes; 0 means this engine's exhaustive scan."""
        if self.ivf is None or nprobe == 0:
            return 0
        return nprobe or self.nprobe or self.ivf.nprobe

    def tables(
        self, queries: np.ndarray, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The batch's ``(lut64, q_sq64)``, via the LUT cache of whichever
        layer (IVF or flat) a call with this ``nprobe`` is scanned by."""
        if self._probes(nprobe):
            return self.ivf.tables(queries)
        return query_tables(queries, self.sharded.codebooks64, self.lut_cache)

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

        ``1 <= k <= n_db``. This is the entry a caller that already holds
        the batch's tables uses (:class:`~repro.retrieval.mutable.
        MutableIndex` scans its other segments with the same ones).
        """
        probes = self._probes(nprobe)
        if probes:
            self.last_dispatch = "ivf"
            return self.ivf.scan(queries, tables, k, rerank=rerank, nprobe=probes)
        sharded = self.sharded
        n_db = len(sharded)
        n_q = len(queries)
        lut64, q_sq64 = tables
        obs = get_obs()
        scan_start = time.perf_counter() if obs.enabled else 0.0

        use_rerank = self.rerank if rerank is None else (
            bool(rerank) and sharded.scan_dtype == np.dtype(np.float32)
        )
        use_pool = self._use_pool(n_q)
        self.last_dispatch = "process-pool" if use_pool else "in-process"
        fell_back = False
        if use_pool:
            # Tasks carry the compact row-major tables; each worker lays
            # them out for the scan itself (fused tables are K/2 times the bytes).
            shard_k = min(k + (RERANK_PAD if use_rerank else 0), n_db)
            lut, q_sq = cast_tables(lut64, q_sq64, sharded.scan_dtype)
            tasks = [
                (lut, q_sq, lo, hi, min(shard_k, hi - lo))
                for lo, hi in sharded.bounds
            ]
            try:
                pool = self._ensure_pool()
                results = pool.map_async(_pool_scan_shard, tasks).get(
                    timeout=self.task_timeout_s
                )
            except BaseException as exc:
                # A hung worker surfaces as multiprocessing.TimeoutError; a
                # crashed one as a pool-internal error (or the timeout, since
                # Pool never notices dead children on its own). Either way
                # the pool can no longer be trusted: tear it down — the next
                # parallel batch rebuilds it over the same shared buffers —
                # and re-serve this batch with the in-process serial scan.
                self._abandon_pool()
                if not isinstance(exc, Exception):  # pragma: no cover
                    raise  # KeyboardInterrupt and friends propagate
                fell_back = True
                self.last_dispatch = "in-process-fallback"
        served_by_pool = use_pool and not fell_back
        if served_by_pool:
            scan_elapsed = time.perf_counter() - scan_start if obs.enabled else 0.0
            merge_start = time.perf_counter() if obs.enabled else 0.0
            indices, values = merge_topk(
                [r[0] for r in results], [r[1] for r in results], shard_k
            )
            if use_rerank:
                indices, values = rerank_exact(
                    lut64, q_sq64, sharded.codes_t, sharded.norms64,
                    indices, indices, k,
                )
            else:
                indices, values = indices[:, :k], values[:, :k].astype(np.float64)
            merge_elapsed = time.perf_counter() - merge_start if obs.enabled else 0.0
            shard_seconds = [r[3] for r in results]
        else:
            # Sharding exists to feed pool workers. In-process the whole
            # layout is one range — row accumulation is independent of
            # shard boundaries and the selection is tie-stable, so the
            # answer is the same — scanned, reranked and mapped in one call.
            call_start = time.perf_counter() if obs.enabled else 0.0
            if sharded.layout is not None:
                indices, values = search_ranges(
                    lut64, q_sq64, sharded.layout, sharded.full_range, k,
                    rerank=use_rerank,
                )
            else:  # a float64 scan is the answer: one range sorts on (distance, id)
                values, indices, _, _ = scan_topk(
                    *scan_tables(lut64, q_sq64, sharded.scan_dtype),
                    sharded.codes_t, sharded.norms, sharded.full_range, k,
                )
            merge_elapsed = 0.0
            if obs.enabled:
                shard_seconds = [time.perf_counter() - call_start]
                # A fallback batch keeps the phase wall: the stall was real.
                scan_elapsed = (
                    time.perf_counter() - scan_start if fell_back else shard_seconds[0]
                )

        if obs.enabled:
            registry = obs.registry
            # adc.scan.* counts the scan phase. In-process that is the one
            # call (its top-k and, for a float32 layout, its rerank ride
            # inside it); under the pool per-shard clocks overlap, so the
            # phase wall (including dispatch) is the honest figure.
            registry.histogram(metric_names.ADC_SCAN_TIME).observe(scan_elapsed)
            if scan_elapsed > 0:
                registry.histogram(metric_names.ADC_SCAN_CODES_PER_S).observe(
                    n_q * n_db * sharded.num_codebooks / scan_elapsed
                )
            shard_hist = registry.histogram(metric_names.ENGINE_SHARD_SCAN_TIME)
            for seconds in shard_seconds:
                shard_hist.observe(seconds)
            registry.histogram(metric_names.ENGINE_MERGE_TIME).observe(merge_elapsed)
            registry.counter(metric_names.ENGINE_SHARDS_SCANNED).inc(len(shard_seconds))
            registry.counter(metric_names.ENGINE_BATCHES_TOTAL).inc()
            if served_by_pool:
                registry.counter(metric_names.ENGINE_PARALLEL_BATCHES).inc()
            if fell_back:
                registry.counter(metric_names.ENGINE_POOL_FALLBACKS).inc()
        return indices, values
