"""MicroBatcher collector policy, driven with a fake dispatch.

The batcher is work-conserving: it dispatches at once while fewer than
``busy_threshold`` dispatches are in flight and lingers (at most
``max_delay_s``) only while all of them are taken. ``max_delay_s=5.0``
below means any test that still paid the linger on an idle batcher would
see nothing dispatched after its handful of loop iterations.
"""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.obs import names as metric_names
from repro.serving.batcher import MicroBatcher, PendingRequest


class FakeDispatch:
    """Records each group; parks on ``gate`` while one is set, then resolves
    the group's futures with the dispatch's ordinal. Fails its group when
    cancelled, as the daemon's dispatch does."""

    def __init__(self):
        self.groups: list[list[PendingRequest]] = []
        self.gate: asyncio.Future | None = None

    async def __call__(self, group):
        self.groups.append(list(group))
        ordinal = len(self.groups)
        try:
            if self.gate is not None:
                await self.gate
        except asyncio.CancelledError:
            for request in group:
                request.future.set_exception(RuntimeError("dispatch cancelled"))
            raise
        for request in group:
            request.future.set_result(ordinal)

    def park(self):
        self.gate = asyncio.get_running_loop().create_future()

    def release(self):
        gate, self.gate = self.gate, None
        gate.set_result(None)


def make_request(k=10, rerank=None, nprobe=None):
    loop = asyncio.get_running_loop()
    now = loop.time()
    return PendingRequest(
        query=np.zeros(2), k=k, future=loop.create_future(),
        enqueue_time=now, deadline=now + 60.0, signature="",
        rerank=rerank, nprobe=nprobe,
    )


def enqueue(batcher, n=1, **kwargs):
    requests = [make_request(**kwargs) for _ in range(n)]
    for request in requests:
        assert batcher.try_enqueue(request)
    return requests


async def spin(iterations=10):
    """Let the loop turn a few times — no wall-clock wait involved."""
    for _ in range(iterations):
        await asyncio.sleep(0)


def started(dispatch, **kwargs):
    kwargs.setdefault("max_delay_s", 5.0)
    batcher = MicroBatcher(dispatch, **kwargs)
    batcher.start()
    return batcher


class TestIdleDispatch:
    def test_lone_request_is_dispatched_without_lingering(self):
        async def run():
            dispatch = FakeDispatch()
            batcher = started(dispatch)
            (request,) = enqueue(batcher)
            await spin()
            done = request.future.done()
            await batcher.abort()
            return dispatch.groups, request, done

        groups, request, done = asyncio.run(run())
        assert done and groups == [[request]]

    def test_simultaneous_arrivals_ride_one_dispatch(self):
        async def run():
            dispatch = FakeDispatch()
            batcher = started(dispatch)
            requests = enqueue(batcher, 8)
            await spin()
            await batcher.abort()
            return dispatch.groups, requests

        groups, requests = asyncio.run(run())
        assert groups == [requests]
        assert all(request.future.result() == 1 for request in requests)

    def test_max_batch_size_caps_a_sweep_and_the_rest_goes_next(self):
        async def run():
            dispatch = FakeDispatch()
            batcher = started(dispatch, max_batch_size=4, busy_threshold=8)
            requests = enqueue(batcher, 10)
            await spin()
            await batcher.abort()
            return dispatch.groups, requests

        groups, requests = asyncio.run(run())
        assert groups == [requests[:4], requests[4:8], requests[8:]]

    def test_mixed_search_configurations_split_into_groups(self):
        async def run():
            dispatch = FakeDispatch()
            batcher = started(dispatch, busy_threshold=8)
            plain = enqueue(batcher, 2)
            other_k = enqueue(batcher, 2, k=5)
            no_rerank = enqueue(batcher, 1, rerank=False)
            probed = enqueue(batcher, 2, nprobe=4)
            plain += enqueue(batcher, 1)
            await spin()
            await batcher.abort()
            return dispatch.groups, [plain, other_k, no_rerank, probed]

        groups, want = asyncio.run(run())
        assert groups == want

    def test_constructor_rejects_nonsense(self):
        for bad in (
            dict(max_batch_size=0), dict(max_delay_s=-1.0), dict(busy_threshold=0),
        ):
            with pytest.raises(ValueError):
                MicroBatcher(FakeDispatch(), **bad)


class TestBusyLinger:
    def test_waits_for_company_only_while_every_slot_is_busy(self):
        delay = 0.05

        async def run():
            loop = asyncio.get_running_loop()
            dispatch = FakeDispatch()
            batcher = started(dispatch, max_delay_s=delay, busy_threshold=2)
            dispatch.park()
            parked = []
            for _ in range(2):  # one below the threshold still goes at once
                parked += enqueue(batcher)
                await spin()
            assert dispatch.groups == [[parked[0]], [parked[1]]]
            blocked = dispatch.gate
            dispatch.gate = None  # later dispatches answer immediately

            waited_from = loop.time()
            (first,) = enqueue(batcher)
            await spin()
            assert len(dispatch.groups) == 2  # every slot busy: it lingers
            (company,) = enqueue(batcher)
            await spin()
            assert len(dispatch.groups) == 2
            await asyncio.wait_for(first.future, timeout=5.0)
            waited = loop.time() - waited_from
            blocked.set_result(None)
            await batcher.drain()
            return dispatch.groups, first, company, waited

        groups, first, company, waited = asyncio.run(run())
        assert groups[2] == [first, company]
        assert company.future.result() == 3
        assert waited >= delay * 0.8  # the wait ended at max_delay_s, not before

    def test_a_full_batch_does_not_wait_out_the_window(self):
        async def run():
            dispatch = FakeDispatch()
            batcher = started(dispatch, max_batch_size=3)
            dispatch.park()
            (parked,) = enqueue(batcher)
            await spin()
            requests = enqueue(batcher, 3)
            await spin()
            groups = [list(group) for group in dispatch.groups]
            await batcher.abort()
            return groups, parked, requests

        groups, parked, requests = asyncio.run(run())
        assert groups == [[parked], requests]

    def test_zero_delay_never_lingers_even_when_busy(self):
        async def run():
            dispatch = FakeDispatch()
            batcher = started(dispatch, max_delay_s=0.0)
            dispatch.park()
            for _ in range(3):
                enqueue(batcher)
                await spin()
            count = len(dispatch.groups)
            await batcher.abort()
            return count

        assert asyncio.run(run()) == 3


class TestShutdown:
    def test_drain_resolves_everything_accepted(self):
        async def run():
            loop = asyncio.get_running_loop()
            dispatch = FakeDispatch()
            batcher = started(dispatch, max_delay_s=0.05)  # drain waits it out
            dispatch.park()
            requests = enqueue(batcher)
            await spin()  # in flight, parked on the gate
            requests += enqueue(batcher, 2)
            await spin()  # in the collector's hand, lingering (busy)
            requests += enqueue(batcher, 2)  # may still sit in the queue
            loop.call_later(0.02, dispatch.release)
            await asyncio.wait_for(batcher.drain(), timeout=5.0)
            with pytest.raises(RuntimeError):
                batcher.try_enqueue(make_request())
            return requests

        requests = asyncio.run(run())
        assert all(request.future.done() for request in requests)
        assert [request.future.result() for request in requests] == [1, 2, 2, 2, 2]

    def test_abort_fails_everything_parked(self):
        async def run():
            dispatch = FakeDispatch()
            batcher = started(dispatch)
            dispatch.park()
            requests = enqueue(batcher)
            await spin()  # in flight: cancelled with its dispatch
            requests += enqueue(batcher, 2)
            await spin()  # in hand: failed by the cancelled collector
            requests += enqueue(batcher, 2)  # queued: failed by abort()
            await asyncio.wait_for(batcher.abort(), timeout=5.0)
            return batcher, requests

        batcher, requests = asyncio.run(run())
        assert batcher.qsize() == 0
        for request in requests:
            assert request.future.done()
            assert isinstance(request.future.exception(), RuntimeError)


class TestWaitMetric:
    def test_one_wait_observation_per_request(self):
        async def run():
            dispatch = FakeDispatch()
            batcher = started(dispatch, busy_threshold=8)
            enqueue(batcher, 3)
            enqueue(batcher, 2, k=5)
            await spin()
            await batcher.drain()

        with obs.observed() as handle:
            asyncio.run(run())
        snapshot = handle.registry.snapshot()
        wait = snapshot[metric_names.SERVE_BATCH_WAIT_S]
        assert wait["count"] == 5 and 0.0 <= wait["max"] < 1.0
        assert snapshot[metric_names.SERVE_BATCH_SIZE]["count"] == 2
        assert snapshot[metric_names.SERVE_BATCHES_TOTAL]["value"] == 2
