"""The metric catalogue: every metric the system emits, by constant name.

Instrumented code never passes string literals to the registry — it uses
the constants below, and ``docs/metrics.md`` documents exactly this list
(``scripts/check_docs.py`` enforces the correspondence in both
directions). A few metrics are *families*: their documented name ends in
``.<term>`` and concrete emissions substitute a runtime key (e.g. the
per-loss-term means ``train.epoch.loss.total``, ``train.epoch.loss.ce``).
"""

from __future__ import annotations

from dataclasses import dataclass

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """One entry of the metric catalogue.

    ``name`` ending in ``.<term>`` marks a *family*: emitted names share
    the prefix before ``<term>`` and append a runtime-determined key.
    """

    name: str
    kind: str
    unit: str
    emitted_by: str
    description: str

    @property
    def is_family(self) -> bool:
        return self.name.endswith(".<term>")

    @property
    def prefix(self) -> str:
        """For a family spec, the fixed prefix concrete names start with."""
        return self.name[: -len("<term>")]


# --- training (repro.core.trainer, repro.resilience.guards) -----------------
TRAIN_EPOCH_TIME = "train.epoch.time_s"
TRAIN_EPOCH_LOSS_FAMILY = "train.epoch.loss.<term>"
TRAIN_EPOCH_LOSS_PREFIX = "train.epoch.loss."
TRAIN_STEP_TIME = "train.step.time_s"
TRAIN_STEP_LOSS = "train.step.loss"
TRAIN_STEP_GRAD_NORM = "train.step.grad_norm"
TRAIN_STEPS_TOTAL = "train.steps.total"
TRAIN_STEPS_SKIPPED = "train.steps.skipped"
TRAIN_GUARD_ROLLBACKS = "train.guard.rollbacks"
TRAIN_FUSED_SPEEDUP = "train.fused.speedup"
TRAIN_FUSED_LOSS_PARITY = "train.fused.loss_parity"

# --- data loading (repro.data.loader) ---------------------------------------
DATA_BATCH_FETCH_TIME = "data.batch.fetch_time_s"
DATA_BATCHES_TOTAL = "data.batches.total"

# --- retrieval (repro.retrieval.adc / .search / .index / .engine) -----------
ADC_LUT_BUILD_TIME = "adc.lut.build_time_s"
ADC_SCAN_TIME = "adc.scan.time_s"
ADC_SCAN_CODES_PER_S = "adc.scan.codes_per_s"
ENGINE_BATCHES_TOTAL = "engine.batches.total"
IVF_BUILD_TIME = "ivf.build.time_s"
IVF_TRAIN_TIME = "ivf.train.time_s"
IVF_ASSIGN_TIME = "ivf.assign.time_s"
IVF_SCAN_TIME = "ivf.scan.time_s"
IVF_CELLS_PROBED = "ivf.cells.probed"
IVF_CANDIDATES_SCANNED = "ivf.candidates.scanned"
IVF_BATCHES_TOTAL = "ivf.batches.total"
IVF_PROBES_EXPANDED = "ivf.probes.expanded"
INDEX_ENCODE_TIME = "index.encode.time_s"
INDEX_BUILD_TIME = "index.build.time_s"
QUERY_LATENCY = "query.latency_s"
QUERY_BATCHES_TOTAL = "query.batches.total"
QUERY_ITEMS_TOTAL = "query.items.total"
QUERY_LUT_CACHE_HITS = "query.lut.cache.hits"
QUERY_LUT_CACHE_MISSES = "query.lut.cache.misses"
QUERY_ENCODE_TIME = "query.encode.time_s"
SEARCH_EXHAUSTIVE_TIME = "search.exhaustive.time_s"

# --- mutable index (repro.retrieval.mutable) --------------------------------
MUTABLE_ADD_TIME = "mutable.add.time_s"
MUTABLE_ADDS_TOTAL = "mutable.adds.total"
MUTABLE_REMOVES_TOTAL = "mutable.removes.total"
MUTABLE_COMPACT_TIME = "mutable.compact.time_s"
MUTABLE_COMPACTIONS_TOTAL = "mutable.compactions.total"
MUTABLE_SEGMENTS_LIVE = "mutable.segments.live"
MUTABLE_TOMBSTONES_LIVE = "mutable.tombstones.live"
MUTABLE_DRIFT_RATIO = "mutable.drift.ratio"
MUTABLE_REFRESH_FLAGGED = "mutable.refresh.flagged"

# --- serving daemon (repro.serving.daemon / .batcher / .replica) ------------
SERVE_REQUESTS_TOTAL = "serve.requests.total"
SERVE_REQUESTS_OK = "serve.requests.ok"
SERVE_REQUESTS_FAILED = "serve.requests.failed"
SERVE_REQUESTS_SHED = "serve.requests.shed"
SERVE_REQUEST_LATENCY = "serve.request.latency_s"
SERVE_BATCH_SIZE = "serve.batch.size"
SERVE_BATCHES_TOTAL = "serve.batches.total"
SERVE_BATCH_WAIT_S = "serve.batch.wait_s"
SERVE_QUEUE_DEPTH = "serve.queue.depth"
SERVE_CACHE_HITS = "serve.cache.hits"
SERVE_CACHE_MISSES = "serve.cache.misses"
SERVE_CACHE_STALE_SERVED = "serve.cache.stale_served"
SERVE_RETRIES_TOTAL = "serve.retries.total"
SERVE_HEDGES_TOTAL = "serve.hedges.total"
SERVE_FAILOVERS_TOTAL = "serve.failovers.total"
SERVE_SCANS_INLINE = "serve.scans.inline"
SERVE_BREAKER_OPENS = "serve.breaker.opens"
SERVE_REPLICAS_HEALTHY = "serve.replicas.healthy"
SERVE_DEGRADED_ACTIVE = "serve.degraded.active"
SERVE_DEGRADED_TRANSITIONS = "serve.degraded.transitions"

SPECS: tuple[MetricSpec, ...] = (
    MetricSpec(
        TRAIN_EPOCH_TIME,
        HISTOGRAM,
        "seconds",
        "repro.core.trainer.TrainingSession.run_epoch",
        "Wall time of one full training epoch.",
    ),
    MetricSpec(
        TRAIN_EPOCH_LOSS_FAMILY,
        GAUGE,
        "loss",
        "repro.core.trainer.TrainingSession.run_epoch",
        "Mean of one loss component over the epoch's non-skipped steps; "
        "one gauge per component recorded in the training history "
        "(e.g. train.epoch.loss.total).",
    ),
    MetricSpec(
        TRAIN_STEP_TIME,
        HISTOGRAM,
        "seconds",
        "repro.core.trainer.TrainingSession.run_epoch",
        "Wall time of one optimisation step (forward, backward, clip, "
        "update).",
    ),
    MetricSpec(
        TRAIN_STEP_LOSS,
        HISTOGRAM,
        "loss",
        "repro.core.trainer.TrainingSession.run_epoch",
        "Total combined loss per step (finite values only).",
    ),
    MetricSpec(
        TRAIN_STEP_GRAD_NORM,
        HISTOGRAM,
        "l2-norm",
        "repro.core.trainer.TrainingSession.run_epoch",
        "Global gradient norm per step, before clipping is applied.",
    ),
    MetricSpec(
        TRAIN_STEPS_TOTAL,
        COUNTER,
        "steps",
        "repro.core.trainer.TrainingSession.run_epoch",
        "Optimisation steps attempted.",
    ),
    MetricSpec(
        TRAIN_STEPS_SKIPPED,
        COUNTER,
        "steps",
        "repro.core.trainer.TrainingSession.run_epoch",
        "Steps skipped on a non-finite loss or gradient norm.",
    ),
    MetricSpec(
        TRAIN_GUARD_ROLLBACKS,
        COUNTER,
        "events",
        "repro.resilience.guards.GuardedTrainer.fit",
        "Guard interventions: epoch rollbacks with LR backoff.",
    ),
    MetricSpec(
        TRAIN_FUSED_SPEEDUP,
        GAUGE,
        "ratio",
        "repro.obs.bench.bench_profile",
        "Fused-over-reference training throughput multiplier "
        "(fused steps/s divided by reference steps/s) measured by the "
        "benchmark's train phase.",
    ),
    MetricSpec(
        TRAIN_FUSED_LOSS_PARITY,
        GAUGE,
        "bool",
        "repro.obs.bench.bench_profile",
        "1 when the fused training run's final epoch-mean loss matches the "
        "reference run within the documented tolerance "
        "(phases.train.parity_rtol), else 0.",
    ),
    MetricSpec(
        DATA_BATCH_FETCH_TIME,
        HISTOGRAM,
        "seconds",
        "repro.data.loader.DataLoader.__iter__",
        "Time to materialise one mini-batch (index + copy) — the loader "
        "stall seen by the training loop.",
    ),
    MetricSpec(
        DATA_BATCHES_TOTAL,
        COUNTER,
        "batches",
        "repro.data.loader.DataLoader.__iter__",
        "Mini-batches yielded.",
    ),
    MetricSpec(
        ADC_LUT_BUILD_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.adc.query_tables",
        "Time to build the per-query M x K inner-product lookup tables "
        "(one observation per batch on every search surface).",
    ),
    MetricSpec(
        ADC_SCAN_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.adc.adc_distances, "
        "repro.retrieval.engine.QueryEngine.scan",
        "Time to score every database item against the lookup tables "
        "(the serial scan excludes ranking; the engine times its one "
        "search call, whose top-k and rerank ride inside it).",
    ),
    MetricSpec(
        ADC_SCAN_CODES_PER_S,
        HISTOGRAM,
        "codes/second",
        "repro.retrieval.adc.adc_distances, "
        "repro.retrieval.engine.QueryEngine.scan",
        "Scan throughput in logical table lookups per second "
        "(n_queries x n_db x M / scan time, whatever the layout gathers). "
        "Serial and engine scans feed the same histogram, so speedups read "
        "straight off one metric.",
    ),
    MetricSpec(
        ENGINE_BATCHES_TOTAL,
        COUNTER,
        "batches",
        "repro.retrieval.engine.QueryEngine.scan",
        "Query batches served by the flat engine's exhaustive scan.",
    ),
    MetricSpec(
        SERVE_REQUESTS_TOTAL,
        COUNTER,
        "requests",
        "repro.serving.daemon.ServingDaemon.submit",
        "Client requests accepted by the serving daemon.",
    ),
    MetricSpec(
        SERVE_REQUESTS_OK,
        COUNTER,
        "requests",
        "repro.serving.daemon.ServingDaemon.submit",
        "Requests answered successfully (including cached and degraded "
        "answers).",
    ),
    MetricSpec(
        SERVE_REQUESTS_FAILED,
        COUNTER,
        "requests",
        "repro.serving.daemon.ServingDaemon.submit",
        "Requests that exhausted every retry, failover, and degraded "
        "fallback and returned an error to the client.",
    ),
    MetricSpec(
        SERVE_REQUESTS_SHED,
        COUNTER,
        "requests",
        "repro.serving.daemon.ServingDaemon.submit",
        "Requests rejected at admission because the request queue was at "
        "its backpressure limit.",
    ),
    MetricSpec(
        SERVE_REQUEST_LATENCY,
        HISTOGRAM,
        "seconds",
        "repro.serving.daemon.ServingDaemon.submit",
        "End-to-end latency of one served request: enqueue to answer, "
        "including batching delay, retries, and failover.",
    ),
    MetricSpec(
        SERVE_BATCH_SIZE,
        HISTOGRAM,
        "requests",
        "repro.serving.batcher.MicroBatcher.lead",
        "Number of client requests coalesced into one engine scan.",
    ),
    MetricSpec(
        SERVE_BATCHES_TOTAL,
        COUNTER,
        "batches",
        "repro.serving.batcher.MicroBatcher.lead",
        "Micro-batches a leader took and served (inline or through the "
        "executor machinery).",
    ),
    MetricSpec(
        SERVE_BATCH_WAIT_S,
        HISTOGRAM,
        "seconds",
        "repro.serving.batcher.MicroBatcher.lead",
        "Pending wait plus micro-batch assembly of one request: admission to "
        "the leader taking its batch (one loop turn; linger is paid only "
        "while every replica is busy).",
    ),
    MetricSpec(
        SERVE_QUEUE_DEPTH,
        HISTOGRAM,
        "requests",
        "repro.serving.daemon.ServingDaemon.submit",
        "Pending requests (admitted, not yet taken by a batch leader) "
        "observed at each admission — the daemon's instantaneous backlog.",
    ),
    MetricSpec(
        SERVE_CACHE_HITS,
        COUNTER,
        "requests",
        "repro.serving.daemon.ServingDaemon.submit",
        "Requests answered from a fresh result-cache entry.",
    ),
    MetricSpec(
        SERVE_CACHE_MISSES,
        COUNTER,
        "requests",
        "repro.serving.daemon.ServingDaemon.submit",
        "Requests that missed the result cache and went to the engine.",
    ),
    MetricSpec(
        SERVE_CACHE_STALE_SERVED,
        COUNTER,
        "requests",
        "repro.serving.daemon.ServingDaemon.submit",
        "Requests answered from an expired cache entry while the daemon "
        "was degraded (stale-while-degraded).",
    ),
    MetricSpec(
        SERVE_RETRIES_TOTAL,
        COUNTER,
        "attempts",
        "repro.serving.daemon.ServingDaemon",
        "Scan attempts beyond the first, issued after a failure or "
        "deadline with exponential backoff and jitter.",
    ),
    MetricSpec(
        SERVE_HEDGES_TOTAL,
        COUNTER,
        "attempts",
        "repro.serving.daemon.ServingDaemon",
        "Hedged scans: a duplicate attempt raced against a straggler on a "
        "different replica (first answer wins).",
    ),
    MetricSpec(
        SERVE_FAILOVERS_TOTAL,
        COUNTER,
        "events",
        "repro.serving.daemon.ServingDaemon",
        "Batches whose answer came from a different replica than the one "
        "first attempted.",
    ),
    MetricSpec(
        SERVE_SCANS_INLINE,
        COUNTER,
        "scans",
        "repro.serving.daemon.ServingDaemon",
        "Replica scans run inline on the event-loop thread (no executor "
        "hand-off) because the replica's recent scans at that batch width "
        "finished under the inline bound.",
    ),
    MetricSpec(
        SERVE_BREAKER_OPENS,
        COUNTER,
        "events",
        "repro.serving.breaker.CircuitBreaker",
        "Circuit-breaker transitions into the open state (a replica "
        "quarantined after consecutive failures).",
    ),
    MetricSpec(
        SERVE_REPLICAS_HEALTHY,
        GAUGE,
        "replicas",
        "repro.serving.replica.ReplicaSet",
        "Replicas currently believed healthy by heartbeats and breakers.",
    ),
    MetricSpec(
        SERVE_DEGRADED_ACTIVE,
        GAUGE,
        "bool",
        "repro.serving.daemon.ServingDaemon",
        "1 while the daemon is serving in a degraded mode (overload or "
        "replica loss), else 0.",
    ),
    MetricSpec(
        SERVE_DEGRADED_TRANSITIONS,
        COUNTER,
        "events",
        "repro.serving.daemon.ServingDaemon",
        "Degraded-mode entries and exits (each direction counts one).",
    ),
    MetricSpec(
        IVF_BUILD_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.ivf.IVFIndex.build",
        "Total IVF construction time: coarse-quantizer training, cell "
        "assignment, and the inverted-list layout.",
    ),
    MetricSpec(
        IVF_TRAIN_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.ivf.IVFIndex.build",
        "Coarse-quantizer k-means training time (zero when prebuilt "
        "centroids are supplied).",
    ),
    MetricSpec(
        IVF_ASSIGN_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.ivf.IVFIndex.build",
        "Time to assign every database item to its nearest cell and lay "
        "out the contiguous inverted lists (streams reconstructions in "
        "chunks).",
    ),
    MetricSpec(
        IVF_SCAN_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.ivf.IVFIndex.scan",
        "Wall time of one IVF query batch: centroid probe scan, block "
        "assembly and kernel scan of the probed cells, and the candidate "
        "rerank (the table build before it is adc.lut.build_time_s).",
    ),
    MetricSpec(
        IVF_CELLS_PROBED,
        HISTOGRAM,
        "cells",
        "repro.retrieval.ivf.IVFIndex.scan",
        "Inverted lists probed per query — nprobe, unless probe expansion "
        "had to widen the set to fill k.",
    ),
    MetricSpec(
        IVF_CANDIDATES_SCANNED,
        HISTOGRAM,
        "codes",
        "repro.retrieval.ivf.IVFIndex.scan",
        "Database items scored per query (the probed cells' total size) — "
        "divide by n_db for the realised pruning fraction.",
    ),
    MetricSpec(
        IVF_BATCHES_TOTAL,
        COUNTER,
        "batches",
        "repro.retrieval.ivf.IVFIndex.scan",
        "Query batches served through the IVF layer.",
    ),
    MetricSpec(
        IVF_PROBES_EXPANDED,
        COUNTER,
        "queries",
        "repro.retrieval.ivf.IVFIndex.scan",
        "Queries whose probed cells held fewer than k candidates and had "
        "their probe set widened in centroid-distance order (empty or "
        "tiny cells make this reachable).",
    ),
    MetricSpec(
        INDEX_ENCODE_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.index.QuantizedIndex.build",
        "Time to encode database items into codeword ids (only observed "
        "when ``build`` actually encodes; supplied codes skip it).",
    ),
    MetricSpec(
        INDEX_BUILD_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.index.QuantizedIndex.build",
        "Total index construction time (encode + reconstruction norms).",
    ),
    MetricSpec(
        QUERY_LATENCY,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.index.QuantizedIndex.serve",
        "Per-query latency of ADC search (batch wall time spread over the "
        "batch's queries; single-query calls give exact per-query "
        "latency).",
    ),
    MetricSpec(
        QUERY_BATCHES_TOTAL,
        COUNTER,
        "batches",
        "repro.retrieval.index.QuantizedIndex.serve",
        "Search calls served.",
    ),
    MetricSpec(
        QUERY_ITEMS_TOTAL,
        COUNTER,
        "queries",
        "repro.retrieval.index.QuantizedIndex.serve",
        "Individual queries served across all search calls.",
    ),
    MetricSpec(
        QUERY_LUT_CACHE_HITS,
        COUNTER,
        "queries",
        "repro.retrieval.lut_cache.LUTCache.tables",
        "Query rows whose ADC lookup table was served from the cross-query "
        "LUT cache instead of being rebuilt (repeated or near-duplicate "
        "queries inside and across micro-batches).",
    ),
    MetricSpec(
        QUERY_LUT_CACHE_MISSES,
        COUNTER,
        "queries",
        "repro.retrieval.lut_cache.LUTCache.tables",
        "Query rows whose ADC lookup table had to be freshly built and was "
        "inserted into the cross-query LUT cache.",
    ),
    MetricSpec(
        QUERY_ENCODE_TIME,
        HISTOGRAM,
        "seconds",
        "repro.serving.daemon.ServingDaemon.submit",
        "Time to encode one request's raw features into query embeddings "
        "before search — the full backbone+DSQ path or the distilled light "
        "encoder, whichever the request selected.",
    ),
    MetricSpec(
        SEARCH_EXHAUSTIVE_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.search.exhaustive_search",
        "Wall time of one exhaustive (uncompressed) search call — the "
        "reference point ADC speedups are measured against.",
    ),
    MetricSpec(
        MUTABLE_ADD_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.mutable.MutableIndex.add",
        "Wall time of one add batch: encode, norm computation, segment "
        "seal, and the generation swap.",
    ),
    MetricSpec(
        MUTABLE_ADDS_TOTAL,
        COUNTER,
        "items",
        "repro.retrieval.mutable.MutableIndex.add",
        "Vectors appended across all add batches.",
    ),
    MetricSpec(
        MUTABLE_REMOVES_TOTAL,
        COUNTER,
        "items",
        "repro.retrieval.mutable.MutableIndex.remove",
        "Rows tombstoned across all remove calls.",
    ),
    MetricSpec(
        MUTABLE_COMPACT_TIME,
        HISTOGRAM,
        "seconds",
        "repro.retrieval.mutable.MutableIndex.compact",
        "Wall time of one compaction: merging live rows of every segment "
        "into a fresh base, rebuilding the attached engine/IVF layout, and "
        "swapping the generation. The bench's compaction pause "
        "percentiles read this distribution.",
    ),
    MetricSpec(
        MUTABLE_COMPACTIONS_TOTAL,
        COUNTER,
        "compactions",
        "repro.retrieval.mutable.MutableIndex.compact",
        "Completed compactions.",
    ),
    MetricSpec(
        MUTABLE_SEGMENTS_LIVE,
        GAUGE,
        "segments",
        "repro.retrieval.mutable.MutableIndex",
        "Sealed segments (base included) in the current generation.",
    ),
    MetricSpec(
        MUTABLE_TOMBSTONES_LIVE,
        GAUGE,
        "items",
        "repro.retrieval.mutable.MutableIndex",
        "Tombstoned rows awaiting compaction in the current generation.",
    ),
    MetricSpec(
        MUTABLE_DRIFT_RATIO,
        GAUGE,
        "ratio",
        "repro.retrieval.mutable.MutableIndex.add",
        "Mean quantization error of the latest add batch relative to the "
        "drift baseline (first batch unless set explicitly) — rises as "
        "the arriving distribution drifts away from what the codebooks "
        "were trained on.",
    ),
    MetricSpec(
        MUTABLE_REFRESH_FLAGGED,
        COUNTER,
        "flags",
        "repro.retrieval.mutable.MutableIndex.add",
        "Times the drift ratio crossed the refresh threshold from below — "
        "each crossing is a signal to fine-tune/refresh the DSQ codebooks "
        "and rebuild.",
    ),
)

METRIC_NAMES = frozenset(spec.name for spec in SPECS)
FAMILY_PREFIXES = tuple(spec.prefix for spec in SPECS if spec.is_family)


def is_known_metric(name: str) -> bool:
    """True when ``name`` is catalogued, exactly or via a family prefix."""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(prefix) and len(name) > len(prefix)
               for prefix in FAMILY_PREFIXES)
