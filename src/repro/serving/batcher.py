"""Micro-batching front end: many awaiters, one engine scan.

Concurrent ``submit`` calls land individual single-query requests on an
asyncio queue; the batcher's collector loop pops the first, sweeps up what
else is already queued (up to ``max_batch_size``), groups the batch by
``(k, rerank hint, nprobe)``, and hands each group to the daemon's dispatch
coroutine as **one** scan. It is work-conserving: it dispatches at once
while fewer than ``busy_threshold`` dispatches are in flight (a replica is
idle) and lingers for company — at most ``max_delay_s`` — only while every
replica is busy, which is when a bigger batch buys throughput (LUT build,
dispatch and merge amortised across every rider).

The queue is bounded: a full queue means the daemon is past its
backpressure limit and ``try_enqueue`` returns ``False`` (the daemon sheds
that request). Draining is first-class for clean shutdown: ``drain()``
stops admission, waits for the queue to empty and every in-flight dispatch
to finish, then stops the collector — no request is abandoned mid-flight.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names

__all__ = ["MicroBatcher", "PendingRequest"]


@dataclass
class PendingRequest:
    """One client request parked in the batcher.

    ``future`` resolves to ``(indices_row, distances_row, meta)`` — the
    daemon's dispatch fills it; ``deadline`` is absolute event-loop time.
    """

    query: np.ndarray
    k: int
    future: asyncio.Future
    enqueue_time: float
    deadline: float
    signature: str
    #: Explicit rerank hint from a SearchRequest (None: daemon decides).
    rerank: bool | None = None
    #: Per-request IVF probe width (None: the replica engine's default).
    nprobe: int | None = None
    meta: dict = field(default_factory=dict)


class MicroBatcher:
    """Collects concurrent requests into ``(k, rerank, nprobe)`` scan groups."""

    def __init__(
        self,
        dispatch,
        *,
        max_batch_size: int = 32,
        max_delay_s: float = 0.002,
        max_queue: int = 1024,
        busy_threshold: int = 1,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if busy_threshold < 1:
            raise ValueError("busy_threshold must be at least 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        self._dispatch = dispatch
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self.busy_threshold = int(busy_threshold)
        self._queue: asyncio.Queue[PendingRequest] = asyncio.Queue(
            maxsize=max_queue
        )
        self._inflight: set[asyncio.Task] = set()
        self._collector: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def qsize(self) -> int:
        return self._queue.qsize()

    def try_enqueue(self, request: PendingRequest) -> bool:
        """Park a request; ``False`` means the queue is full (shed it)."""
        if self._closed:
            raise RuntimeError("batcher is draining or stopped")
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            return False
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._collector is None:
            self._collector = asyncio.create_task(
                self._run(), name="serve-batcher"
            )

    async def drain(self) -> None:
        """Stop admission, finish everything already accepted, then stop."""
        self._closed = True
        await self._queue.join()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        await self._stop_collector()

    async def abort(self) -> None:
        """Hard stop: cancel the collector and in-flight dispatches, fail
        anything still parked in the queue."""
        self._closed = True
        await self._stop_collector()
        for task in list(self._inflight):
            task.cancel()
        if self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        while not self._queue.empty():
            request = self._queue.get_nowait()
            self._queue.task_done()
            if not request.future.done():
                request.future.set_exception(
                    RuntimeError("serving daemon stopped")
                )

    async def _stop_collector(self) -> None:
        if self._collector is not None:
            self._collector.cancel()
            try:
                await self._collector
            except asyncio.CancelledError:
                pass
            self._collector = None

    # ------------------------------------------------------------------
    # Collector
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # task_done is deferred until the batch's dispatch tasks exist:
            # drain() relies on queue.join() meaning "popped AND handed to a
            # dispatch", otherwise a cancel could land mid-window and drop
            # the in-hand batch with its futures unresolved.
            batch: list[PendingRequest] = []
            try:
                batch.append(await self._queue.get())
                # Linger only while every replica is busy; with one idle
                # the sweep below still coalesces simultaneous arrivals.
                busy = len(self._inflight) >= self.busy_threshold
                window_ends = loop.time() + (self.max_delay_s if busy else 0.0)
                while len(batch) < self.max_batch_size:
                    remaining = window_ends - loop.time()
                    if remaining <= 0:
                        # Opportunistic sweep: anything already queued rides
                        # along even after the window closed.
                        while (
                            len(batch) < self.max_batch_size
                            and not self._queue.empty()
                        ):
                            batch.append(self._queue.get_nowait())
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(
                                self._queue.get(), timeout=remaining
                            )
                        )
                    except asyncio.TimeoutError:
                        break
            except asyncio.CancelledError:
                for request in batch:
                    self._queue.task_done()
                    if not request.future.done():
                        request.future.set_exception(
                            RuntimeError("serving daemon stopped")
                        )
                raise
            # One scan per (k, rerank hint, nprobe): a request with an
            # explicit search configuration cannot ride a scan that made a
            # different one — the answers differ.
            groups: dict[tuple, list[PendingRequest]] = {}
            for request in batch:
                groups.setdefault(
                    (request.k, request.rerank, request.nprobe), []
                ).append(request)
            obs = get_obs()
            if obs.enabled:
                wait = obs.registry.histogram(metric_names.SERVE_BATCH_WAIT_S)
                now = loop.time()
                for request in batch:
                    wait.observe(now - request.enqueue_time)
            for group in groups.values():
                if obs.enabled:
                    obs.registry.histogram(
                        metric_names.SERVE_BATCH_SIZE
                    ).observe(len(group))
                    obs.registry.counter(
                        metric_names.SERVE_BATCHES_TOTAL
                    ).inc()
                task = asyncio.create_task(self._dispatch(group))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
            for _ in batch:
                self._queue.task_done()
