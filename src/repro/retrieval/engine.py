"""The flat ADC query engine: the serving path of §IV at speed.

:func:`repro.retrieval.adc.adc_distances` is the *reference* scan — float64
and a full ``(n_q, n_db)`` temporary per codebook. This module is the
deployable version of the same Eqn. 24 arithmetic:

- :class:`ShardedIndex` is a :class:`~repro.retrieval.index.QuantizedIndex`
  laid out for scanning (:func:`repro.retrieval.adc.scan_codes`): a
  ``(columns, n_db)`` code array — the index's own code store, not a copy
  (one column per codebook in the narrowest unsigned dtype ``K`` permits:
  uint8 for K ≤ 256, uint16 for K ≤ 65 536), or, where
  :func:`~repro.retrieval.adc.fuses_pairs` says the shape pays for it, a new
  array with one column per codebook *pair* holding the joint code
  ``c_{2j}·K + c_{2j+1}`` in the dtype twice as wide (the same bytes per
  item) — range-checked once and frozen, norms kept in float32 and float64,
  and bound once for the compiled search.
- :class:`QueryEngine` is the flat range provider of the shared ADC stages
  (:mod:`repro.retrieval.adc`): the layout is one range handed to
  :func:`~repro.retrieval.adc.search_ranges` with the layout's
  :class:`~repro.retrieval.adc.ScanLayout` — tables, scan, float64 rerank
  and answer in one GIL-free compiled call, or its NumPy composition where
  no compiler exists. With an IVF layer attached,
  :meth:`~repro.retrieval.ivf.IVFIndex.scan` serves the call instead.

Exactness. The scan runs in float32 for throughput — over fused tables when
the layout is fused, which changes only float32 rounding — then
(``rerank=True``) the ``k + RERANK_PAD`` survivors are re-scored against the
float64 tables (joint codes decoded with ``divmod(code, K)`` at those
positions), which restores serial-exact rankings unless float32 error
exceeds the true distance gap for ``RERANK_PAD`` items at once (never
observed; property-tested across seeds). With ``rerank=False`` rankings
follow raw float32 distances: within float32 tolerance of serial, top-k
sets identical on the benchmark profiles.

Observability: the engine feeds the same ``adc.lut.build_time_s`` /
``adc.scan.time_s`` / ``adc.scan.codes_per_s`` instruments as the serial
scan (``codes_per_s`` counts the logical ``n_q·n·M`` lookups whatever the
layout gathers, so one metric compares every path), plus
``engine.batches.total``.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.adc import (
    ScanLayout,
    compact_code_dtype,
    fuses_pairs,
    merge_topk,
    query_tables,
    scan_codes,
    search_ranges,
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
    "topk_tie_stable",
]


class ShardedIndex:
    """A :class:`QuantizedIndex` laid out for the compiled scan.

    ``codes_t`` is the frozen :func:`~repro.retrieval.adc.scan_codes`
    layout: ``(M, n_db)`` compact codeword ids, or — when ``fused``, decided
    here from ``(M, K, n_db)`` by :func:`~repro.retrieval.adc.fuses_pairs`
    and by nothing else — ``(M/2, n_db)`` joint pair codes indexing
    ``table_width = K²``-entry fused tables; an unfused layout is the
    index's code store itself, not a copy. Norms are kept in float32 for the
    scan and float64 for the exact rerank, and the layout is bound once
    (``layout``, an :class:`~repro.retrieval.adc.ScanLayout`). Read-only
    once built, so any number of engines may scan one layout.

    ``num_shards`` is accepted for compatibility and must be 1.
    """

    def __init__(self, index: QuantizedIndex, num_shards: int = 1) -> None:
        if num_shards != 1:
            raise ValueError(
                "num_shards must be 1: the multiprocessing scan pool that "
                "scanned shards was removed"
            )
        self.num_codebooks = index.num_codebooks
        self.num_codewords = index.num_codewords
        self.dim = index.dim
        self.fused = fuses_pairs(index.num_codebooks, index.num_codewords, len(index))
        self.codes_t = scan_codes(index.codes, index.num_codewords, self.fused)
        self.codebooks64 = np.ascontiguousarray(index.codebooks, dtype=np.float64)
        # The flat scan's one range.
        self.full_range = np.array([(0, len(self))], dtype=np.int64)
        self._bind(index.db_sq_norms)

    def _bind(self, norms64: np.ndarray) -> None:
        """Bind the layout to row norms ``norms64`` (float32 derived)."""
        self.norms64 = np.ascontiguousarray(norms64, dtype=np.float64)
        self.norms = self.norms64.astype(np.float32)
        self.layout = ScanLayout(
            self.codes_t, self.norms, self.norms64, self.num_codewords, self.fused
        )

    def __len__(self) -> int:
        return self.codes_t.shape[1]

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
    """Serve ADC top-k queries over a scan layout, in-process.

    Parameters
    ----------
    index:
        The :class:`QuantizedIndex` to serve (or a prebuilt
        :class:`ShardedIndex`).
    rerank:
        After the float32 scan, re-score the survivors against the float64
        tables so returned rankings match the serial float64 path.
    parallel:
        Accepted for compatibility; only ``"never"`` is valid.
    ivf:
        Optional coarse inverted-file layer
        (:mod:`repro.retrieval.ivf`): a prebuilt
        :class:`~repro.retrieval.ivf.IVFIndex` over the same index (share
        one across replicas — the layout is read-only), or an ``int`` cell
        count to train one here. With an IVF layer attached, searches
        probe only the ``nprobe`` nearest cells instead of scanning every
        row — approximate, with measured recall (``docs/tuning.md``).
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

    :meth:`close` (or leaving the ``with`` block) releases nothing; a
    closed engine refuses further searches.
    """

    def __init__(
        self,
        index: QuantizedIndex | ShardedIndex,
        *,
        rerank: bool = True,
        parallel: str = "never",
        ivf=None,
        nprobe: int | None = None,
        lut_cache: int | None = LUT_CACHE_CAPACITY,
    ) -> None:
        if parallel != "never":
            raise ValueError(
                "parallel must be 'never': the multiprocessing scan pool "
                "was removed"
            )
        if isinstance(index, ShardedIndex):
            self.sharded = index
        else:
            self.sharded = ShardedIndex(index)
        self.rerank = bool(rerank)
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
        # "in-process" | "ivf"
        self.last_dispatch = "in-process"
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Refuse further searches. The layout is shared and stays valid."""
        self._closed = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_db(self) -> int:
        """Database rows this engine serves."""
        return len(self.sharded)

    @property
    def dim(self) -> int:
        return self.sharded.dim

    def matches(self, index: QuantizedIndex) -> bool:
        return self.sharded.matches(index)

    def with_norms(self, norms64: np.ndarray) -> "QueryEngine":
        """This engine with its flat and IVF layouts rebound to the row
        norms ``norms64`` (in index order; a tombstoned base's, dead rows at
        ``+inf``): the code layouts and LUT caches are shared, not rebuilt."""
        engine = copy.copy(self)
        engine.sharded = copy.copy(self.sharded)
        engine.sharded._bind(norms64)
        if self.ivf is not None:
            engine.ivf = self.ivf.with_norms(norms64)
        return engine

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
        if self._closed:
            raise RuntimeError("engine is closed")
        probes = self._probes(nprobe)
        rerank = self.rerank if rerank is None else bool(rerank)
        if probes:
            self.last_dispatch = "ivf"
            return self.ivf.scan(queries, tables, k, rerank=rerank, nprobe=probes)
        self.last_dispatch = "in-process"
        sharded = self.sharded
        lut64, q_sq64 = tables
        obs = get_obs()
        scan_start = time.perf_counter() if obs.enabled else 0.0
        indices, values = search_ranges(
            lut64, q_sq64, sharded.layout, sharded.full_range, k, rerank=rerank
        )
        if obs.enabled:
            elapsed = time.perf_counter() - scan_start
            registry = obs.registry
            # adc.scan.* counts the one call: its top-k and rerank ride inside.
            registry.histogram(metric_names.ADC_SCAN_TIME).observe(elapsed)
            if elapsed > 0:
                registry.histogram(metric_names.ADC_SCAN_CODES_PER_S).observe(
                    len(queries) * len(sharded) * sharded.num_codebooks / elapsed
                )
            registry.counter(metric_names.ENGINE_BATCHES_TOTAL).inc()
        return indices, values
