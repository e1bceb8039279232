"""The resilient serving daemon: keep answering, whatever breaks.

:class:`ServingDaemon` fronts the ADC query engine with an asyncio
request loop and owns every recovery decision between a client's
``await daemon.submit(query, k)`` and an answer:

- **Micro-batching** — concurrent requests coalesce into one engine scan
  per ``(k, rerank, nprobe)``, served by the first ``submit`` of the loop
  turn, the batch's leader (:mod:`repro.serving.batcher`).
- **Replication + failover** — each scan runs on one of ``num_replicas``
  replica engines (:mod:`repro.serving.replica`); a crash, corrupt
  response, or timeout moves the batch to the next healthy replica.
- **Inline short scans** — the leader scans a batch itself, on the
  event-loop thread, when the replica's recent scans finished under a tenth
  of the hedge trigger: a miss is one loop turn. A replica's first scan, a
  wider batch than it has proven, every scan after a slow or failed one, and
  degraded scans take an executor thread, where hedging and attempt
  timeouts can act; a failed inline scan is the first of those attempts.
- **Deadlines, retries, hedging** — every request carries an absolute
  deadline; failed attempts retry with exponential backoff and seeded
  jitter, and a straggling attempt is hedged once on a second replica
  (first answer wins).
- **Circuit breakers** — per replica (:mod:`repro.serving.breaker`), so a
  failing replica is quarantined instead of re-timed-out per request.
- **Result cache** — LRU/TTL keyed on query signature — the query bytes
  plus the effective ``(k, nprobe, rerank, encoder)`` search
  configuration (:mod:`repro.serving.cache`); fresh hits skip the engine
  (and, for encoder requests, the encode) entirely, and an entry is never
  served to a request with a different configuration.
- **Graceful degradation** — under overload (queue depth) or replica loss
  the daemon enters an explicit degraded mode: expired cache entries are
  served stale, scans skip the float64 rerank (and optionally cap ``k``),
  and hedging stops. Entry/exit transitions are counted, gauged
  (``serve.degraded.*``), and appended to ``daemon.events``.
- **Backpressure** — admission beyond the bounded queue sheds with
  :class:`Overloaded` rather than building unbounded backlog.
- **Clean shutdown** — ``stop(drain=True)`` refuses new work, finishes
  every in-flight request, then tears the replicas down.

Everything observable lands in the ``serve.*`` metric family (see
``docs/metrics.md``); the always-on ``daemon.counts`` mirror of the key
counters keeps load reports working with observability disabled.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter as CountMap
from dataclasses import dataclass

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.engine import QueryEngine
from repro.retrieval.mutable import MutationRequest, MutationResult
from repro.retrieval.search import SearchRequest, validate_query_batch
from repro.rng import make_rng
from repro.serving.batcher import MicroBatcher, PendingRequest
from repro.serving.breaker import CircuitBreaker
from repro.serving.cache import ResultCache, query_signature
from repro.serving.replica import Replica, ReplicaSet

__all__ = [
    "Overloaded",
    "RequestFailed",
    "ServeResult",
    "ServingConfig",
    "ServingDaemon",
]


class Overloaded(RuntimeError):
    """Request shed at admission: the queue hit its backpressure limit."""


class RequestFailed(RuntimeError):
    """Every retry, failover, and degraded fallback was exhausted."""


@dataclass(frozen=True)
class ServingConfig:
    """Tunables for one daemon. Defaults suit CI-scale indexes; the time
    knobs scale together (attempt < hedge budget < request deadline)."""

    default_k: int = 10
    #: Requests coalesced into one scan, and the upper bound on the wait for
    #: company added while every replica is busy (an idle one dispatches at once).
    max_batch_size: int = 32
    batch_delay_s: float = 0.002
    #: Admission queue bound — beyond it requests shed with Overloaded.
    max_queue: int = 1024
    #: End-to-end deadline per request (enqueue to answer).
    request_timeout_s: float = 1.0
    #: Budget for a single replica scan attempt.
    attempt_timeout_s: float = 0.2
    #: Scan attempts per batch, first try included.
    max_attempts: int = 4
    #: Exponential backoff between retries, with seeded +-jitter fraction.
    backoff_base_s: float = 0.002
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    #: Hedge a straggler after this long (None disables hedging).
    hedge_after_s: float | None = 0.05
    #: Result cache geometry.
    cache_capacity: int = 2048
    cache_ttl_s: float = 2.0
    #: Replica health-check period (None disables the heartbeat loop).
    heartbeat_interval_s: float | None = 0.1
    #: Circuit breaker per replica.
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 0.25
    #: Overload degradation: enter at this queue depth, exit at half of it
    #: (hysteresis). None derives max_queue // 2.
    degrade_queue_depth: int | None = None
    #: Replica-loss degradation: degraded while healthy replicas < this.
    #: None derives a majority: (num_replicas + 1) // 2.
    degrade_min_healthy: int | None = None
    #: Degraded scans skip the float64 rerank (raw float32 ranking).
    degraded_skip_rerank: bool = True
    #: Degraded answers truncate to at most this many neighbours (None: off).
    degraded_k_cap: int | None = None
    #: Seed for backoff jitter — runs replay identically.
    seed: int = 0


@dataclass
class ServeResult:
    """One answered request.

    ``source`` is ``"engine"``, ``"cache"`` (fresh hit), or
    ``"cache_stale"`` (expired entry served under degradation);
    ``degraded`` marks answers produced under any degraded mode — outside
    degraded windows results are exactly the engine's serial-parity scan.
    """

    indices: np.ndarray
    distances: np.ndarray
    source: str
    degraded: bool
    latency_s: float
    replica: int | None = None
    attempts: int = 1


class ServingDaemon:
    """Long-running front end over replicated :class:`QueryEngine` scans.

    Parameters
    ----------
    index:
        The :class:`~repro.retrieval.index.QuantizedIndex` to serve, or a
        :class:`~repro.retrieval.mutable.MutableIndex` — then every
        replica scans the same mutable index (generation snapshots make
        that safe), :meth:`mutate` routes add/remove/compact through it,
        and ``engine_kwargs`` must be configured on the index itself.
    num_replicas:
        Replica engines to spread scans (and failures) over. Every
        replica scans the same read-only layouts — one flat
        :class:`~repro.retrieval.engine.ShardedIndex` (the index's code
        store unless pair-fused) and, if configured, one IVF layout — so
        the database is materialised once however many replicas serve it.
        ``engine_kwargs`` configures the engines: an IVF layer (trained
        once if named by cell count), the rerank, the LUT cache. The
        default is the flat exhaustive scan.
    faults:
        Optional fault plan (duck-typed ``before_scan`` /
        ``transform_response`` hooks, e.g.
        :class:`repro.resilience.faults.ServingFaults`) handed to every
        replica — production code passes nothing.
    on_event:
        Optional callable for state-change lines (degraded enter/exit,
        replica death/revival); the same lines always accumulate in
        ``daemon.events``.
    query_encoders:
        Optional ``{"full": ..., "light": ...}`` map of query encoders for
        requests that carry *raw features* instead of embeddings
        (``SearchRequest(encoder=...)``). Values expose ``embed(features)
        -> embeddings`` — the trained :class:`~repro.core.model.LightLT`
        for ``"full"``, a distilled
        :class:`~repro.encoding.LightQueryEncoder` for ``"light"``.
        Requests naming an encoder the daemon was not given raise
        ``ValueError``.
    """

    def __init__(
        self,
        index,
        *,
        num_replicas: int = 2,
        config: ServingConfig | None = None,
        faults=None,
        engine_kwargs: dict | None = None,
        on_event=None,
        query_encoders: dict | None = None,
    ) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be at least 1")
        self._query_encoders = dict(query_encoders or {})
        for mode, encoder in self._query_encoders.items():
            if mode not in ("full", "light"):
                raise ValueError(
                    f"query_encoders keys must be 'full'/'light', got {mode!r}"
                )
            if not callable(getattr(encoder, "embed", None)):
                raise ValueError(
                    f"query encoder {mode!r} must expose embed(features)"
                )
        self.config = config or ServingConfig()
        cfg = self.config
        self._index = index
        self._mutable = bool(getattr(index, "is_mutable", False))
        if self._mutable:
            if engine_kwargs:
                raise ValueError(
                    "a MutableIndex owns its engine configuration (pass "
                    "engine_kwargs when constructing the index); the daemon "
                    "does not accept engine_kwargs for mutable indexes"
                )
            # Every replica serves the same mutable index: its generation
            # snapshots make concurrent scans safe, and routing mutations
            # through one object keeps all replicas at the same generation.
            engines = [index for _ in range(num_replicas)]
        else:
            # The first engine lays the index out (and resolves an
            # ``ivf=<cells>`` count to one IVFIndex); every other replica
            # scans those same read-only layouts.
            engine_kwargs = engine_kwargs or {}
            first = QueryEngine(index, **engine_kwargs)
            shared_kwargs = {**engine_kwargs, "ivf": first.ivf}
            engines = [first] + [
                QueryEngine(first.sharded, **shared_kwargs)
                for _ in range(num_replicas - 1)
            ]
        replicas = [Replica(i, engine, faults=faults) for i, engine in enumerate(engines)]
        breakers = [
            CircuitBreaker(
                failure_threshold=cfg.breaker_failure_threshold,
                cooldown_s=cfg.breaker_cooldown_s,
                name=f"replica-{i}",
            )
            for i in range(num_replicas)
        ]
        self.replica_set = ReplicaSet(replicas, breakers)
        # Inline scans: a replica whose scans of up to ``_inline_rows[id]``
        # rows have been finishing under the bound runs them on the loop
        # thread. The bound is a tenth of the earliest the protocol could have
        # reacted to a slow scan (the hedge trigger, else the attempt timeout)
        # — what a synchronous scan, which the loop cannot time out, gives up.
        react_s = cfg.attempt_timeout_s
        if cfg.hedge_after_s is not None:
            react_s = min(react_s, cfg.hedge_after_s)
        self._inline_bound_s = 0.1 * react_s
        self._inline_rows = {replica.replica_id: 0 for replica in replicas}
        self.cache = ResultCache(
            capacity=cfg.cache_capacity, ttl_s=cfg.cache_ttl_s
        )
        self.batcher = MicroBatcher(
            self._serve_groups,
            max_batch_size=cfg.max_batch_size,
            max_delay_s=cfg.batch_delay_s,
            max_queue=cfg.max_queue,
            busy_threshold=len(self.replica_set),
        )
        self._min_healthy = (
            cfg.degrade_min_healthy
            if cfg.degrade_min_healthy is not None
            else (num_replicas + 1) // 2
        )
        self._overload_enter = (
            cfg.degrade_queue_depth
            if cfg.degrade_queue_depth is not None
            else max(1, cfg.max_queue // 2)
        )
        self._overload_exit = max(1, self._overload_enter // 2)
        self._rng = make_rng(cfg.seed)
        self._degraded_reasons: set[str] = set()
        self.events: list[str] = []
        self._on_event = on_event
        self.counts: CountMap = CountMap()
        self._accepting = False
        self._heartbeat_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Begin accepting requests; starts the batcher and heartbeats."""
        if self._accepting:
            return
        self.batcher.start()
        if self.config.heartbeat_interval_s is not None:
            self._heartbeat_task = asyncio.create_task(
                self._heartbeat_loop(), name="serve-heartbeat"
            )
        self._accepting = True

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting; with ``drain`` finish all in-flight work first."""
        self._accepting = False
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        await (self.batcher.drain() if drain else self.batcher.abort())
        for replica in self.replica_set.replicas:
            replica.engine.close()

    async def __aenter__(self) -> "ServingDaemon":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=True)

    @property
    def dim(self) -> int:
        return self.replica_set.replicas[0].dim

    @property
    def n_db(self) -> int:
        """Searchable rows right now (moves under mutations)."""
        return self.replica_set.replicas[0].n_db

    @property
    def mutable(self) -> bool:
        """True when the served index accepts :meth:`mutate`."""
        return self._mutable

    @property
    def degraded(self) -> bool:
        return bool(self._degraded_reasons)

    @property
    def degraded_reasons(self) -> frozenset:
        return frozenset(self._degraded_reasons)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    async def submit(
        self,
        query: "np.ndarray | SearchRequest",
        k: int | None = None,
    ) -> ServeResult:
        """Serve one query; resolves when an answer (or failure) is final.

        Takes either a raw ``(dim,)`` vector plus ``k``, or a
        :class:`~repro.retrieval.search.SearchRequest` carrying exactly one
        query row — its ``k``, ``nprobe``, ``rerank``, and ``deadline_s``
        fields are honoured (``deadline_s`` overrides the config request
        timeout). ``nprobe`` requires IVF-configured replicas (``repro
        serve --ivf-cells``, ``engine_kwargs={"ivf": ...}``, or a
        MutableIndex built with them) and is forwarded to the scan;
        requests with different search configurations never share a scan
        batch or a cache entry. ``engine`` hints are rejected: the daemon
        owns its engines.

        ``encoder`` requests carry *raw features*: the named query encoder
        (constructor ``query_encoders``) embeds them before the scan, the
        encode timed into ``query.encode.time_s``. The cache signature is
        taken over the raw features plus the encoder mode, so a repeated
        raw query hits the cache without paying even the light encoder —
        and full-path and light-path answers never alias.
        """
        rerank_hint: bool | None = None
        nprobe: int | None = None
        deadline_s: float | None = None
        encoder_mode: str | None = None
        if isinstance(query, SearchRequest):
            if k is not None:
                raise TypeError(
                    "pass search parameters inside the SearchRequest, not "
                    "alongside it"
                )
            request_obj = query
            if request_obj.n_queries != 1:
                raise ValueError(
                    "the daemon serves one query per submit; send one "
                    "request per row (the batcher coalesces them)"
                )
            # Replicas are configured alike: the first answers for all.
            if request_obj.nprobe is not None and not self.replica_set.replicas[0].has_ivf:
                raise ValueError(
                    "nprobe was given but the daemon's replica engines have "
                    "no IVF layer; serve with --ivf-cells / "
                    "engine_kwargs={'ivf': ...} to accept per-request nprobe"
                )
            if request_obj.engine is not None:
                raise ValueError(
                    "the daemon owns its engines; requests cannot carry an "
                    "engine hint"
                )
            encoder_mode = request_obj.encoder
            if (
                encoder_mode is not None
                and encoder_mode not in self._query_encoders
            ):
                raise ValueError(
                    f"encoder {encoder_mode!r} requested but the daemon has "
                    "no such query encoder (pass query_encoders= / serve "
                    "with --query-encoder)"
                )
            query = request_obj.queries[0]
            k = request_obj.k
            nprobe = request_obj.nprobe
            rerank_hint = request_obj.rerank
            deadline_s = request_obj.deadline_s
        if not self._accepting:
            raise RuntimeError("daemon is not accepting requests")
        cfg = self.config
        k = cfg.default_k if k is None else int(k)
        if k < 1:
            raise ValueError("k must be at least 1")
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise ValueError("query must be a 1-D vector")
        # The array form meets the shared validation site here (a
        # SearchRequest already has): one non-finite row would turn its
        # whole micro-batch's distances non-finite. Raw features have the
        # encoder's width, not the index's.
        validate_query_batch(
            query[None, :], dim=self.dim if encoder_mode is None else None
        )
        loop = asyncio.get_running_loop()
        start = loop.time()
        obs = get_obs()
        self.counts["requests"] += 1
        depth = self.batcher.qsize()
        if obs.enabled:
            registry = obs.registry
            registry.counter(metric_names.SERVE_REQUESTS_TOTAL).inc()
            registry.histogram(metric_names.SERVE_QUEUE_DEPTH).observe(depth)
        self._update_overload(depth)

        # Signed over the request's raw bytes: for encoder requests that is
        # the *feature* vector plus the mode, so a cache hit skips the
        # encode as well as the scan.
        signature = query_signature(
            query, k, nprobe=nprobe, rerank=rerank_hint, encoder=encoder_mode
        )
        hit = self.cache.get(signature, now=start, allow_stale=self.degraded)
        if hit is not None:
            entry, fresh = hit
            self.counts["cache_hits" if fresh else "stale_served"] += 1
            if obs.enabled:
                registry.counter(
                    metric_names.SERVE_CACHE_HITS
                    if fresh else metric_names.SERVE_CACHE_STALE_SERVED
                ).inc()
            return self._finish_ok(
                loop, start, entry.indices.copy(), entry.distances.copy(),
                "cache" if fresh else "cache_stale", not fresh, None, 0,
            )
        self.counts["cache_misses"] += 1
        if obs.enabled:
            registry.counter(metric_names.SERVE_CACHE_MISSES).inc()

        if encoder_mode is not None:
            encode_start = time.perf_counter()
            query = np.asarray(
                self._query_encoders[encoder_mode].embed(query[None, :])[0],
                dtype=np.float64,
            )
            encode_elapsed = time.perf_counter() - encode_start
            if query.ndim != 1 or query.shape[0] != self.dim:
                raise ValueError(
                    f"query encoder {encoder_mode!r} produced shape "
                    f"{query.shape}, expected ({self.dim},)"
                )
            # The scan's input is validated too: finite features can still
            # embed to a row the engine cannot rank (an overflowing ‖q‖²),
            # and that is the client's error, not a replica's.
            validate_query_batch(query[None, :])
            if obs.enabled:
                registry.histogram(metric_names.QUERY_ENCODE_TIME).observe(
                    encode_elapsed
                )

        timeout_s = (
            deadline_s if deadline_s is not None else cfg.request_timeout_s
        )
        request = PendingRequest(
            query=query,
            k=k,
            future=loop.create_future(),
            enqueue_time=start,
            deadline=start + timeout_s,
            signature=signature,
            rerank=rerank_hint,
            nprobe=nprobe,
        )
        if not self.batcher.try_enqueue(request):
            self.counts["shed"] += 1
            if obs.enabled:
                registry.counter(metric_names.SERVE_REQUESTS_SHED).inc()
            raise Overloaded("request queue full — request shed")
        try:
            await self.batcher.lead()
            answer = await request.future  # already done if this submit led
        except Exception:
            self.counts["failed"] += 1
            if obs.enabled:
                registry.counter(metric_names.SERVE_REQUESTS_FAILED).inc()
            raise
        return self._finish_ok(loop, start, *answer)

    async def mutate(self, request: MutationRequest) -> MutationResult:
        """Apply one mutation to the served index; queries keep flowing.

        Only daemons over a :class:`~repro.retrieval.mutable.MutableIndex`
        accept mutations. The mutation runs on an executor thread (the
        index publishes a new generation atomically, so concurrent scans
        are never interrupted), after which the result cache is cleared —
        every cached answer may have been invalidated by the change.
        """
        if not self._mutable:
            raise RuntimeError(
                "daemon serves an immutable index; serve a MutableIndex to "
                "accept mutations"
            )
        if not self._accepting:
            raise RuntimeError("daemon is not accepting requests")
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(None, self._index.apply, request)
        self.cache.clear()
        self.counts["mutations"] += 1
        if request.op == "compact":
            self._emit(
                f"compacted to generation {result.generation}: "
                f"{result.live} live rows in {result.segments} segment(s)"
            )
        return result

    def _finish_ok(
        self, loop, start, indices, distances, source, degraded, replica, attempts
    ) -> ServeResult:
        """The answer (a future's, or a cache hit's) as a ServeResult."""
        latency = loop.time() - start
        self.counts["ok"] += 1
        obs = get_obs()
        if obs.enabled:
            obs.registry.counter(metric_names.SERVE_REQUESTS_OK).inc()
            obs.registry.histogram(metric_names.SERVE_REQUEST_LATENCY).observe(latency)
        return ServeResult(
            indices, distances, source, degraded, latency, replica, attempts
        )

    # ------------------------------------------------------------------
    # Batch serving: inline, then attempts, failover, hedging
    # ------------------------------------------------------------------
    def _serve_groups(self, groups: list[list[PendingRequest]]) -> None:
        """The leader's turn: each group inline, or to :meth:`_serve_batch`."""
        loop = asyncio.get_running_loop()
        for group in groups:
            try:
                self._serve_inline(group, loop)
            except Exception as exc:  # pragma: no cover - defensive backstop
                _fail(group, exc)

    def _serve_inline(self, group: list[PendingRequest], loop) -> None:
        """One group on the loop thread, or on to the executor machinery.

        Inline needs a healthy daemon, a live deadline, a replica whose scans
        of this many rows lately finished under the inline bound, and its
        breaker's admission. A failed inline scan is the machinery's first
        attempt: its retries and failover take over from there.
        """
        if self.degraded:
            self.batcher.spawn(self._serve_batch(group))
            return
        now = loop.time()
        candidates = self.replica_set.candidates(now)
        replica = candidates[0] if candidates else None
        if (
            replica is None
            or len(group) > self._inline_rows[replica.replica_id]
            or now >= min(request.deadline for request in group)
            or not self.replica_set.breaker_for(replica.replica_id).allow(now)
        ):
            self.batcher.spawn(self._serve_batch(group, replica))
            return
        self._count("inline_scans", metric_names.SERVE_SCANS_INLINE)
        queries = np.stack([request.query for request in group])
        head = group[0]
        start = time.perf_counter()
        try:
            indices, distances = replica.search(
                queries, head.k, rerank=head.rerank, nprobe=head.nprobe
            )
        except Exception as exc:
            self._record_scan_failure(replica, exc, loop.time())
            self.batcher.spawn(self._serve_batch(group, replica, exc))
            return
        self._record_scan_success(
            replica, loop.time(), len(group), time.perf_counter() - start
        )
        self._resolve_group(
            group, indices, distances, replica.replica_id, 1,
            degraded=False, cacheable=True, loop=loop,
        )

    async def _serve_batch(
        self,
        group: list[PendingRequest],
        replica: Replica | None = None,
        failure: Exception | None = None,
    ) -> None:
        """Attempts on executor threads until one answers or the budget ends.

        ``replica`` is the leader's pick for the first attempt (``None``:
        pick here); with ``failure`` that attempt already ran inline on it
        and failed, and the loop starts by backing off from it.
        """
        try:
            await self._attempts(group, replica, failure)
        except asyncio.CancelledError:
            # Aborted shutdown: the dispatch dies, but its awaiters must not
            # hang — fail them before propagating the cancellation.
            _fail(group, RuntimeError("serving daemon stopped"))
            raise
        except Exception as exc:  # pragma: no cover - defensive backstop
            _fail(group, exc)

    async def _attempts(self, group, replica, failure) -> None:
        loop = asyncio.get_running_loop()
        cfg = self.config
        queries = np.stack([request.query for request in group])
        k = group[0].k
        deadline = min(request.deadline for request in group)
        degraded = self.degraded
        hint = group[0].rerank
        nprobe = group[0].nprobe
        if hint is not None:
            rerank: bool | None = hint
        else:
            rerank = False if (degraded and cfg.degraded_skip_rerank) else None
        k_scan = k
        if degraded and cfg.degraded_k_cap is not None:
            k_scan = min(k, cfg.degraded_k_cap)
        # Cacheable iff the scan computes exactly what the group's
        # signature (query, k, nprobe, rerank hint) describes: a degraded
        # scan that silently flipped rerank off (hint None, rerank False)
        # or capped k must not land under the healthy key.
        cacheable = rerank == hint and k_scan == k

        attempts = 0
        tried: set[int] = set()
        first_replica: int | None = None
        last_error: Exception | None = None
        if failure is not None:
            attempts, first_replica = 1, replica.replica_id
        while True:
            if failure is not None:
                last_error = failure
                tried.add(replica.replica_id)
                self._update_health()
                backoff = self._backoff_delay(attempts)
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                if backoff > 0:
                    await asyncio.sleep(min(backoff, remaining))
                failure = replica = None
            if attempts >= cfg.max_attempts:
                break
            now = loop.time()
            if now >= deadline:
                break
            if replica is None:
                candidates = self.replica_set.candidates(now, exclude=tried)
                if not candidates and tried:
                    # Every replica has been tried once; start a second lap —
                    # a crashed replica may have revived, and backoff already
                    # spaced the attempts out.
                    tried = set()
                    candidates = self.replica_set.candidates(now)
                if not candidates:
                    break
                replica = candidates[0]
            breaker = self.replica_set.breaker_for(replica.replica_id)
            if not breaker.allow(now):
                tried.add(replica.replica_id)
                replica = None
                continue
            if first_replica is None:
                first_replica = replica.replica_id
            attempts += 1
            if attempts > 1:
                self._count("retries", metric_names.SERVE_RETRIES_TOTAL)
            budget = min(cfg.attempt_timeout_s, deadline - now)
            try:
                indices, distances, served_by = await self._attempt(
                    replica,
                    queries,
                    k_scan,
                    rerank,
                    budget,
                    tried,
                    allow_hedge=not degraded,
                    nprobe=nprobe,
                )
            except Exception as exc:
                failure = exc
                continue
            if served_by != first_replica:
                self._count("failovers", metric_names.SERVE_FAILOVERS_TOTAL)
            self._resolve_group(
                group, indices, distances, served_by, attempts,
                degraded=degraded, cacheable=cacheable, loop=loop,
            )
            return
        self._resolve_exhausted(group, last_error, loop)

    async def _attempt(
        self,
        replica: Replica,
        queries: np.ndarray,
        k: int,
        rerank: bool | None,
        budget_s: float,
        tried: set[int],
        allow_hedge: bool,
        nprobe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One scan attempt, hedged once if it straggles.

        Returns ``(indices, distances, replica_id)`` from whichever task
        finished first with a valid answer; raises the primary's error (or
        a timeout) when nothing succeeded inside the budget. Late
        finishers are detached, their outcome still feeding the breaker.
        """
        loop = asyncio.get_running_loop()
        cfg = self.config
        attempt_deadline = loop.time() + budget_s
        running: dict[asyncio.Future, Replica] = {
            self._scan_task(replica, queries, k, rerank, nprobe): replica
        }
        hedge_wait = (
            cfg.hedge_after_s
            if allow_hedge
            and cfg.hedge_after_s is not None
            and cfg.hedge_after_s < budget_s
            else None
        )
        last_error: Exception | None = None
        while running:
            timeout = attempt_deadline - loop.time()
            if hedge_wait is not None:
                timeout = min(hedge_wait, timeout)
            if timeout <= 0:
                break
            done, _ = await asyncio.wait(
                set(running), timeout=timeout, return_when=asyncio.FIRST_COMPLETED
            )
            now = loop.time()
            if not done:
                if hedge_wait is None:
                    break
                hedge_wait = None  # one hedge per attempt
                hedge_replica = self._pick_hedge(
                    now, tried | {r.replica_id for r in running.values()}
                )
                if hedge_replica is not None:
                    self._count("hedges", metric_names.SERVE_HEDGES_TOTAL)
                    running[
                        self._scan_task(hedge_replica, queries, k, rerank, nprobe)
                    ] = hedge_replica
                continue
            for task in done:
                task_replica = running.pop(task)
                error = task.exception()
                if error is None:
                    indices, distances, scan_s = task.result()
                    self._record_scan_success(
                        task_replica, now, len(queries), scan_s
                    )
                    for straggler, straggler_replica in running.items():
                        self._detach(straggler, straggler_replica)
                    return indices, distances, task_replica.replica_id
                last_error = error
                self._record_scan_failure(task_replica, error, now)
        # Attempt timed out (or every racer failed): abandon what's still
        # running — an abandoned straggler counts as a breaker failure now,
        # and its eventual real outcome is folded in by the detach hook.
        now = loop.time()
        for task, task_replica in running.items():
            self._record_scan_failure(
                task_replica,
                TimeoutError(f"scan attempt exceeded {budget_s:.3f}s"),
                now,
            )
            self._detach(task, task_replica)
        if last_error is None:
            last_error = TimeoutError(
                f"scan attempt exceeded {budget_s:.3f}s budget"
            )
        raise last_error

    def _scan_task(
        self, replica: Replica, queries: np.ndarray, k: int,
        rerank: bool | None, nprobe: int | None = None,
    ) -> asyncio.Future:
        """Start one ``Replica.search`` on an executor thread; resolves to
        ``(indices, distances, seconds)``, the scan timed on that thread."""

        def scan() -> tuple[np.ndarray, np.ndarray, float]:
            start = time.perf_counter()
            indices, distances = replica.search(
                queries, k, rerank=rerank, nprobe=nprobe
            )
            return indices, distances, time.perf_counter() - start

        return asyncio.get_running_loop().run_in_executor(None, scan)

    def _pick_hedge(self, now: float, exclude: set[int]) -> Replica | None:
        candidates = self.replica_set.candidates(now, exclude=exclude)
        for candidate in candidates:
            breaker = self.replica_set.breaker_for(candidate.replica_id)
            if breaker.allow(now):
                return candidate
        return None

    def _detach(self, task: asyncio.Future, replica: Replica) -> None:
        """Let an abandoned scan finish on its own; harvest its outcome."""

        def harvest(finished: asyncio.Future) -> None:
            if finished.cancelled():
                return
            error = finished.exception()
            try:
                now = asyncio.get_running_loop().time()
            except RuntimeError:  # pragma: no cover - loop already gone
                return
            if error is None:
                # rows=0: a straggler can lose the inline privilege, not widen it.
                self._record_scan_success(replica, now, 0, finished.result()[2])
            else:
                self._record_scan_failure(replica, error, now)

        task.add_done_callback(harvest)

    def _record_scan_success(
        self, replica: Replica, now: float, rows: int, scan_s: float
    ) -> None:
        self.replica_set.breaker_for(replica.replica_id).record_success(now)
        self.replica_set.mark_healthy(replica.replica_id)
        held = self._inline_rows[replica.replica_id]
        self._inline_rows[replica.replica_id] = (
            max(held, rows) if scan_s < self._inline_bound_s else 0
        )

    def _record_scan_failure(
        self, replica: Replica, error: Exception, now: float
    ) -> None:
        self._inline_rows[replica.replica_id] = 0
        breaker = self.replica_set.breaker_for(replica.replica_id)
        breaker.record_failure(now)
        if type(error).__name__ == "ReplicaCrash":
            if self.replica_set.states.get(replica.replica_id) != "dead":
                self._emit(f"replica {replica.replica_id} crashed; failing over")
            self.replica_set.mark_dead(replica.replica_id)
        self._update_health()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve_group(
        self, group: list[PendingRequest], indices, distances, replica: int,
        attempts: int, *, degraded: bool, cacheable: bool, loop,
    ) -> None:
        now = loop.time()
        for request, row_ids, row_distances in zip(group, indices, distances):
            if cacheable:
                self.cache.put(request.signature, row_ids, row_distances, now)
            if not request.future.done():
                request.future.set_result(
                    (row_ids, row_distances, "engine", degraded, replica, attempts)
                )

    def _resolve_exhausted(
        self, group: list[PendingRequest], last_error, loop
    ) -> None:
        """Attempts are gone: stale cache is the last resort, else fail."""
        now = loop.time()
        for request in group:
            if request.future.done():
                continue
            hit = self.cache.get(request.signature, now=now, allow_stale=True)
            if hit is not None:
                entry, _fresh = hit
                self._count(
                    "stale_served", metric_names.SERVE_CACHE_STALE_SERVED
                )
                request.future.set_result((
                    entry.indices.copy(), entry.distances.copy(), "cache_stale",
                    True, None, self.config.max_attempts,
                ))
                continue
            request.future.set_exception(
                RequestFailed(
                    "request exhausted retries, failover, and degraded "
                    f"fallbacks (last error: {last_error!r})"
                )
            )

    # ------------------------------------------------------------------
    # Degradation state machine
    # ------------------------------------------------------------------
    def _update_overload(self, depth: int) -> None:
        if depth >= self._overload_enter:
            self._set_degraded("overload", True)
        elif depth <= self._overload_exit:
            self._set_degraded("overload", False)

    def _update_health(self) -> None:
        healthy = self.replica_set.healthy_count()
        self._set_degraded("replica_loss", healthy < self._min_healthy)

    def _set_degraded(self, reason: str, active: bool) -> None:
        before = bool(self._degraded_reasons)
        if active:
            self._degraded_reasons.add(reason)
        else:
            self._degraded_reasons.discard(reason)
        after = bool(self._degraded_reasons)
        if before == after:
            return
        self.counts["degraded_transitions"] += 1
        obs = get_obs()
        if obs.enabled:
            obs.registry.counter(
                metric_names.SERVE_DEGRADED_TRANSITIONS
            ).inc()
            obs.registry.gauge(metric_names.SERVE_DEGRADED_ACTIVE).set(
                1.0 if after else 0.0
            )
        if after:
            reasons = ", ".join(sorted(self._degraded_reasons))
            self._emit(f"degraded mode entered ({reasons})")
        else:
            self._emit("degraded mode exited")

    def _emit(self, line: str) -> None:
        self.events.append(line)
        if self._on_event is not None:
            self._on_event(line)

    def _count(self, key: str, metric: str) -> None:
        self.counts[key] += 1
        obs = get_obs()
        if obs.enabled:
            obs.registry.counter(metric).inc()

    def _backoff_delay(self, attempt: int) -> float:
        cfg = self.config
        base = cfg.backoff_base_s * (cfg.backoff_factor ** max(0, attempt - 1))
        jitter = 1.0 + cfg.backoff_jitter * (2.0 * float(self._rng.random()) - 1.0)
        return max(0.0, base * jitter)

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        interval = self.config.heartbeat_interval_s
        assert interval is not None
        while True:
            await asyncio.sleep(interval)
            await self._heartbeat_once()

    async def _heartbeat_once(self) -> None:
        """Ping every replica concurrently; apply outcomes on the loop."""
        loop = asyncio.get_running_loop()

        async def ping(replica: Replica) -> tuple[int, bool]:
            try:
                await asyncio.wait_for(
                    loop.run_in_executor(None, replica.ping),
                    timeout=self.config.attempt_timeout_s,
                )
            except Exception:
                return replica.replica_id, False
            return replica.replica_id, True

        outcomes = await asyncio.gather(
            *(ping(replica) for replica in self.replica_set.replicas)
        )
        now = loop.time()
        for replica_id, alive in outcomes:
            breaker = self.replica_set.breaker_for(replica_id)
            was = self.replica_set.states.get(replica_id)
            if alive:
                breaker.record_success(now)
                self.replica_set.mark_healthy(replica_id)
                if was == "dead":
                    self._emit(f"replica {replica_id} revived by heartbeat")
            else:
                breaker.record_failure(now)
                if was != "dead":
                    self._emit(f"replica {replica_id} failed heartbeat")
                self.replica_set.mark_dead(replica_id)
        self._update_health()


def _fail(group: list[PendingRequest], error: Exception) -> None:
    """Fail every still-open future of ``group`` with ``error``."""
    for request in group:
        if not request.future.done():
            request.future.set_exception(error)
