"""Micro-batching admission: the first ``submit`` of a loop turn leads the batch.

There is no collector task and no queue consumer. ``submit`` parks its
request (:meth:`MicroBatcher.try_enqueue`) and calls :meth:`~MicroBatcher.lead`;
the first caller while nobody leads becomes the batch's *leader*. It yields
once, so requests admitted in the same loop turn ride along, and lingers for
company — at most ``max_delay_s`` — only while ``busy_threshold`` scans are
out on executor threads (every replica busy), which is when a bigger batch
buys throughput. It then takes up to ``max_batch_size`` pending requests,
groups them by ``(k, rerank hint, nprobe)`` — a request with an explicit
search configuration cannot ride a scan that made a different one — and
runs the daemon's ``serve`` callback on the groups on its own stack: the
daemon scans inline-eligible groups right there and :meth:`spawns
<MicroBatcher.spawn>` the rest onto its retry / hedge / timeout machinery.
Whatever is still pending gets a successor leader task; so does the batch of
a leader cancelled while it waits, so no follower is stranded.

The pending list is bounded: when it is full ``try_enqueue`` returns
``False`` (the daemon sheds that request). ``drain()`` stops admission and
finishes everything accepted — leaders in flight and spawned scans included;
``abort()`` cancels the spawned work and fails whatever is pending.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names

__all__ = ["MicroBatcher", "PendingRequest"]


@dataclass
class PendingRequest:
    """One client request parked in the batcher.

    ``future`` resolves to ``(indices_row, distances_row, source,
    degraded, replica, attempts)`` — the daemon's serving fills it;
    ``deadline`` is absolute event-loop time.
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


class MicroBatcher:
    """Coalesces concurrent requests into ``(k, rerank, nprobe)`` scan groups,
    served by whichever ``submit`` leads the loop turn."""

    def __init__(
        self,
        serve,
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
        self._serve = serve
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self.max_queue = int(max_queue)
        self.busy_threshold = int(busy_threshold)
        self._pending: deque[PendingRequest] = deque()
        self._inflight: set[asyncio.Task] = set()  # spawned scans
        self._leaders: set[asyncio.Task] = set()  # successor leaders
        self._leading = False
        self._full: asyncio.Future | None = None  # a lingering leader's wake-up
        self._paused = True
        self._closed = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def qsize(self) -> int:
        return len(self._pending)

    def try_enqueue(self, request: PendingRequest) -> bool:
        """Park a request; ``False`` means the queue is full (shed it)."""
        if self._closed:
            raise RuntimeError("batcher is draining or stopped")
        if len(self._pending) >= self.max_queue:
            return False
        self._pending.append(request)
        if len(self._pending) >= self.max_batch_size:
            self._wake()
        return True

    async def lead(self) -> None:
        """Serve the pending batch if nobody leads one: every ``submit`` calls
        this right after its enqueue, and only the first of a turn does work.
        """
        if self._leading or self._paused or not self._pending:
            return
        self._leading = True
        try:
            await asyncio.sleep(0)  # the rest of this turn's arrivals
            # Every replica busy: wait for company until the batch fills.
            if len(self._inflight) >= self.busy_threshold and self.max_delay_s > 0 and (
                len(self._pending) < self.max_batch_size and not self._closed
            ):
                self._full = asyncio.get_running_loop().create_future()
                try:
                    await asyncio.wait_for(self._full, timeout=self.max_delay_s)
                except asyncio.TimeoutError:
                    pass
                finally:
                    self._full = None
        except asyncio.CancelledError:
            self._leading = False
            if self._pending and not self._paused:
                self._handoff()
            raise
        self._leading = False
        if not self._paused:
            self._take()

    def _wake(self) -> None:
        """End a lingering leader's wait."""
        if self._full is not None and not self._full.done():
            self._full.set_result(None)

    def _take(self) -> None:
        """Pop up to ``max_batch_size`` requests and serve them as groups."""
        batch = [
            self._pending.popleft()
            for _ in range(min(len(self._pending), self.max_batch_size))
        ]
        if self._pending:  # the rest goes next
            self._handoff()
        groups: dict[tuple, list[PendingRequest]] = {}
        for request in batch:
            groups.setdefault(
                (request.k, request.rerank, request.nprobe), []
            ).append(request)
        obs = get_obs()
        if obs.enabled:
            registry = obs.registry
            wait = registry.histogram(metric_names.SERVE_BATCH_WAIT_S)
            now = asyncio.get_running_loop().time()
            for request in batch:
                wait.observe(now - request.enqueue_time)
            for group in groups.values():
                registry.histogram(metric_names.SERVE_BATCH_SIZE).observe(len(group))
                registry.counter(metric_names.SERVE_BATCHES_TOTAL).inc()
        self._serve(list(groups.values()))

    def _handoff(self) -> None:
        """Start a leader task for what is pending."""
        task = asyncio.create_task(self.lead(), name="serve-leader")
        self._leaders.add(task)
        task.add_done_callback(self._leaders.discard)

    def spawn(self, work) -> None:
        """Run coroutine ``work`` (one group's scan machinery) as a task that
        counts toward ``busy_threshold`` and that ``drain`` waits for."""
        task = asyncio.create_task(work)
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Serve pending requests — also those parked while paused."""
        self._paused = False
        if self._pending and not self._leading:
            self._handoff()

    async def _stop_collector(self) -> None:
        """Pause serving until :meth:`start`: requests park, up to the bound."""
        self._paused = True

    async def drain(self) -> None:
        """Stop admission, finish everything already accepted, then stop."""
        self._closed = True
        self._paused = False
        self._wake()
        while self._leading or self._pending or self._leaders or self._inflight:
            if self._pending and not self._leading and not self._leaders:
                self._handoff()
            tasks = self._leaders | self._inflight
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            else:
                await asyncio.sleep(0)  # a submit leads: let it take its batch
        self._paused = True

    async def abort(self) -> None:
        """Hard stop: cancel spawned work, fail everything pending."""
        self._closed = self._paused = True  # paused: no leader takes or hands off
        self._wake()
        tasks = self._leaders | self._inflight
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        while self._pending:
            request = self._pending.popleft()
            if not request.future.done():
                request.future.set_exception(RuntimeError("serving daemon stopped"))
