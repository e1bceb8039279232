"""Quantized retrieval index: the deployable artifact of LightLT.

Wraps the storage layout of §IV (codebooks + per-item codeword ids + one
stored norm per item) behind a search API, so examples and benchmarks can
index a database once and serve ranked retrieval with ADC lookups.

Both halves of the serving story are observable (:mod:`repro.obs`):
:meth:`QuantizedIndex.build` emits encode and total build times inside an
``index.build`` span, and :meth:`QuantizedIndex.serve` emits a per-query
latency histogram (``query.latency_s``) plus served-query counters — the
numbers ``repro bench`` reports and ``docs/metrics.md`` catalogues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.adc import adc_distances, encode_reconstruct, reconstruct
from repro.retrieval.adc import scan_codes, validate_codes
from repro.retrieval.search import (
    SearchRequest,
    SearchResult,
    SearchSurface,
    rank_by_distance,
    validate_query_batch,
)


@dataclass
class QuantizedIndex(SearchSurface):
    """An immutable database of additive-quantization codes.

    Attributes
    ----------
    codebooks:
        ``(M, K, d)`` codeword tables.
    codes:
        ``(n_db, M)`` codeword ids per database item: the read-only view of
        the code store, a frozen ``(M, n_db)`` array in
        :func:`~repro.retrieval.adc.compact_code_dtype` (``codes.T``, the
        layout an unfused scan reads as it is).
    db_sq_norms:
        ``(n_db,)`` stored ``‖Σ_j o^j‖²`` values (Eqn. 24's middle term).
    labels:
        Optional ``(n_db,)`` item labels carried along for evaluation.
    """

    codebooks: np.ndarray
    codes: np.ndarray
    db_sq_norms: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.codebooks = np.asarray(self.codebooks, dtype=np.float64)
        if self.codebooks.ndim != 3:
            raise ValueError("codebooks must be (M, K, d)")
        m, k, _ = self.codebooks.shape
        self.codes = scan_codes(validate_codes(self.codes, m, k), k).T
        self.db_sq_norms = np.asarray(self.db_sq_norms, dtype=np.float64)
        if len(self.db_sq_norms) != len(self.codes):
            raise ValueError("db_sq_norms and codes disagree on database size")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if len(self.labels) != len(self.codes):
                raise ValueError("labels and codes disagree on database size")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        codebooks: np.ndarray,
        database: np.ndarray,
        labels: np.ndarray | None = None,
        codes: np.ndarray | None = None,
    ) -> "QuantizedIndex":
        """Index a database.

        If ``codes`` are not supplied (e.g. produced by a trained DSQ
        encoder), items are encoded greedily with residual nearest-codeword
        selection — the indexing workflow of Fig. 3 — and decoded in the
        same pass (:func:`~repro.retrieval.adc.encode_reconstruct`); rows
        to encode must be finite. Supplied codes are decoded here.
        """
        obs = get_obs()
        build_start = time.perf_counter() if obs.enabled else 0.0
        encode_elapsed = None
        with obs.span("index.build", items=len(database)):
            codebooks = np.asarray(codebooks, dtype=np.float64)
            if codes is None:
                encode_start = time.perf_counter() if obs.enabled else 0.0
                codes, reconstructions = encode_reconstruct(database, codebooks)
                if obs.enabled:
                    encode_elapsed = time.perf_counter() - encode_start
            else:
                reconstructions = reconstruct(codes, codebooks)
            index = cls(
                codebooks=codebooks,
                codes=codes,
                db_sq_norms=(reconstructions**2).sum(axis=1),
                labels=labels,
            )
        if obs.enabled:
            # Only the encode branch feeds the encode histogram: observing a
            # zero for supplied codes would drag its percentiles down.
            if encode_elapsed is not None:
                obs.registry.histogram(metric_names.INDEX_ENCODE_TIME).observe(
                    encode_elapsed
                )
            obs.registry.histogram(metric_names.INDEX_BUILD_TIME).observe(
                time.perf_counter() - build_start
            )
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes)

    @property
    def num_codebooks(self) -> int:
        return self.codebooks.shape[0]

    @property
    def num_codewords(self) -> int:
        return self.codebooks.shape[1]

    @property
    def dim(self) -> int:
        return self.codebooks.shape[2]

    def reconstructions(self) -> np.ndarray:
        """Decode every database item back to continuous space."""
        return reconstruct(self.codes, self.codebooks)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    last_dispatch = "serial-adc"

    def search_with_distances(
        self,
        queries: np.ndarray,
        k: int | None = None,
        *,
        rerank: bool | None = None,
        nprobe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked ``(indices, squared distances)`` by the reference scan.

        One float64 :func:`~repro.retrieval.adc.adc_distances` matrix and a
        stable ranking of it — the oracle the engines are tested against.
        ``rerank`` has nothing to do here (the scan is already exact) and
        ``nprobe`` raises: there is no IVF layer to probe.
        """
        queries, _ = validate_query_batch(
            queries, k, nprobe, dim=self.dim, n_db=len(self), has_ivf=False
        )
        distance_matrix = adc_distances(
            queries, self.codes, self.codebooks, db_sq_norms=self.db_sq_norms
        )
        indices = rank_by_distance(distance_matrix, k=k)
        rows = np.arange(len(indices))[:, None]
        return indices, distance_matrix[rows, indices]

    def serve(self, request: SearchRequest) -> SearchResult:
        """Serve one :class:`SearchRequest` via ADC lookups.

        A request's ``engine`` hint delegates the scan to a
        :class:`repro.retrieval.engine.QueryEngine` built over this index —
        the compiled flat fast path — or to an
        :class:`repro.retrieval.ivf.IVFIndex` (the pruned approximate
        path), while keeping this method's metrics contract. The engine
        must have been built from an index with this one's geometry.
        ``nprobe`` requires an engine with an IVF layer; without one it
        raises ``ValueError`` — never a silent exhaustive fallback.

        With observability enabled the call records per-query latency into
        ``query.latency_s`` — the batch's wall time spread evenly over its
        queries, so single-query calls (the serving pattern the benchmark
        harness times) yield exact per-query percentiles.
        """
        engine = request.engine
        if engine is None:
            result = super().serve(request)
        elif not engine.matches(self):
            raise ValueError(
                "engine was built over an index with different geometry "
                "than this one"
            )
        else:
            result = engine.serve(request)
        obs = get_obs()
        if obs.enabled:
            n_queries = request.n_queries
            registry = obs.registry
            registry.counter(metric_names.QUERY_BATCHES_TOTAL).inc()
            if n_queries:
                registry.counter(metric_names.QUERY_ITEMS_TOTAL).inc(n_queries)
                registry.histogram(metric_names.QUERY_LATENCY).observe_many(
                    result.elapsed_s / n_queries, n_queries
                )
        return result

    def search_labels(
        self, queries: "np.ndarray | SearchRequest", k: int | None = None
    ) -> np.ndarray:
        """Ranked database *labels*, ready for MAP evaluation."""
        if self.labels is None:
            raise RuntimeError("index was built without labels")
        ranked = self.search(queries, k)
        if isinstance(ranked, SearchResult):
            ranked = ranked.indices
        return self.labels[ranked]
