"""The admission path through ``ServingDaemon``: leaders, groups, linger, shutdown.

The first ``submit`` of a loop turn leads the batch: it yields once, takes
what was admitted in that turn, groups it by ``(k, rerank, nprobe)`` and
serves each group — inline on the loop thread where the picked replica has
earned it, else through the executor machinery. Batching stays
work-conserving: a leader lingers for company (at most ``batch_delay_s``)
only while every replica is busy with an executor scan. ``batch_delay_s=5.0``
below means any test that still paid the linger on an idle daemon would see
nothing served within its bounds.

Replicas are parked with a fault-plan hook that blocks a replica's *first*
scan — always an executor scan, since a fresh replica has earned no inline
privilege — until the test releases it.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import names as metric_names
from repro.resilience.faults import ReplicaKillFault, ServingFaults
from repro.retrieval.engine import QueryEngine
from repro.retrieval.search import SearchRequest
from repro.serving import Overloaded, ServingConfig, ServingDaemon
from repro.serving.batcher import MicroBatcher


class Scans:
    """Fault-plan hook that only watches: each scan's rows, ``k`` and
    thread, and (while ``parked``) holds every replica's first scan."""

    def __init__(self):
        self.rows: list[tuple[int, int]] = []
        self.threads: list[int] = []
        self.gate = threading.Event()
        self.gate.set()

    def park(self):
        self.gate.clear()

    def release(self):
        self.gate.set()

    def before_scan(self, replica, call):
        self.threads.append(threading.get_ident())
        if call == 1:
            assert self.gate.wait(timeout=10.0)

    def transform_response(self, replica, call, indices, distances):
        self.rows.append(indices.shape)
        return indices, distances


def make_daemon(served_index, scans=None, num_replicas=2, **overrides):
    index, _ = served_index
    engine_kwargs = overrides.pop("engine_kwargs", None)
    config = dict(
        heartbeat_interval_s=None, request_timeout_s=10.0, attempt_timeout_s=5.0,
        hedge_after_s=None, batch_delay_s=5.0, cache_ttl_s=30.0,
    )
    config.update(overrides)
    return ServingDaemon(
        index, num_replicas=num_replicas, config=ServingConfig(**config),
        faults=None if scans is None else ServingFaults(scans),
        engine_kwargs=engine_kwargs,
    )


def truth(served_index, rows, k=10, **kwargs):
    index, pool = served_index
    with QueryEngine(index, parallel="never", **kwargs) as engine:
        return engine.search_with_distances(pool[rows], k=k)


async def spin(iterations=10):
    """Let the loop turn a few times — no wall-clock wait involved."""
    for _ in range(iterations):
        await asyncio.sleep(0)


def submit_all(daemon, pool, rows, **kwargs):
    return [asyncio.create_task(daemon.submit(pool[row], **kwargs)) for row in rows]


async def park_replicas(daemon, scans, pool):
    """One executor scan per replica, each held on the gate: every replica
    busy. Returns their tasks."""
    scans.park()
    parked = []
    for row in range(len(daemon.replica_set)):
        parked += submit_all(daemon, pool, [row], k=10)
        await spin()
    assert len(daemon.batcher._inflight) == len(daemon.replica_set)
    return parked


class TestIdleDispatch:
    def test_lone_request_is_dispatched_without_lingering(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            async with make_daemon(served_index, scans) as daemon:
                return await asyncio.wait_for(daemon.submit(pool[0], k=10), 2.0)

        result = asyncio.run(run())
        assert result.latency_s < 1.0 and scans.rows == [(1, 10)]
        assert np.array_equal(result.indices, truth(served_index, [0])[0][0])

    def test_simultaneous_arrivals_ride_one_dispatch(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            async with make_daemon(served_index, scans) as daemon:
                return await asyncio.gather(*submit_all(daemon, pool, range(8), k=10))

        results = asyncio.run(run())
        assert scans.rows == [(8, 10)]
        want = truth(served_index, range(8))
        for row, result in enumerate(results):
            assert result.source == "engine" and result.replica == results[0].replica
            assert np.array_equal(result.indices, want[0][row])
            assert np.array_equal(result.distances, want[1][row])

    def test_same_turn_submits_share_one_inline_scan(self, served_index):
        _, pool = served_index

        async def run():
            async with make_daemon(served_index, num_replicas=1) as daemon:
                # A 4-row scan on a thread earns the replica 4-row inline scans.
                await asyncio.gather(*submit_all(daemon, pool, range(4), k=9))
                before = daemon.replica_set.replicas[0].calls, daemon.counts["inline_scans"]
                results = await asyncio.gather(*submit_all(daemon, pool, range(4, 8), k=9))
                after = daemon.replica_set.replicas[0].calls, daemon.counts["inline_scans"]
                return before, after, results

        before, after, results = asyncio.run(run())
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
        assert np.array_equal(
            np.stack([r.indices for r in results]), truth(served_index, range(4, 8), k=9)[0]
        )

    def test_max_batch_size_caps_a_sweep_and_the_rest_goes_next(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            daemon = make_daemon(
                served_index, scans, num_replicas=3, max_batch_size=4, batch_delay_s=0.0
            )
            async with daemon:
                return await asyncio.gather(*submit_all(daemon, pool, range(10), k=10))

        results = asyncio.run(run())
        assert sorted(scans.rows) == [(2, 10), (4, 10), (4, 10)]
        # One replica per sweep, in rotation: admission order is kept.
        assert [r.replica for r in results] == [0] * 4 + [1] * 4 + [2] * 2

    def test_mixed_search_configurations_split_into_groups(self, served_index):
        index, pool = served_index
        from repro.retrieval.ivf import IVFIndex

        ivf = IVFIndex.build(index, num_cells=8, seed=0)
        requests = (
            [SearchRequest(pool[row:row + 1], k=10) for row in (0, 1)]
            + [SearchRequest(pool[row:row + 1], k=5) for row in (2, 3)]
            + [SearchRequest(pool[4:5], k=10, rerank=False)]
            + [SearchRequest(pool[row:row + 1], k=10, nprobe=2) for row in (5, 6)]
            + [SearchRequest(pool[7:8], k=10)]
        )

        async def run():
            daemon = make_daemon(served_index, engine_kwargs={"ivf": ivf, "nprobe": 8})
            async with daemon:
                return await asyncio.gather(*(daemon.submit(r) for r in requests))

        with obs.observed() as handle:
            results = asyncio.run(run())
        snapshot = handle.registry.snapshot()
        assert snapshot[metric_names.SERVE_BATCHES_TOTAL]["value"] == 4
        sizes = snapshot[metric_names.SERVE_BATCH_SIZE]
        assert (sizes["count"], sizes["max"], sizes["min"]) == (4, 3, 1)
        with QueryEngine(index, ivf=ivf, nprobe=8) as engine:
            for request, result in zip(requests, results):
                want = engine.search_with_distances(
                    request.queries, k=request.k, rerank=request.rerank, nprobe=request.nprobe
                )
                assert np.array_equal(result.indices, want[0][0])
                assert np.array_equal(result.distances, want[1][0])

    def test_constructor_rejects_nonsense(self, served_index):
        for bad in (dict(max_batch_size=0), dict(batch_delay_s=-1.0)):
            with pytest.raises(ValueError):
                make_daemon(served_index, **bad)
        with pytest.raises(ValueError):
            make_daemon(served_index, num_replicas=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda groups: None, busy_threshold=0)


class TestBusyLinger:
    def test_waits_for_company_only_while_every_slot_is_busy(self, served_index):
        _, pool = served_index
        scans = Scans()
        delay = 0.05

        async def run():
            loop = asyncio.get_running_loop()
            async with make_daemon(served_index, scans, batch_delay_s=delay) as daemon:
                parked = await park_replicas(daemon, scans, pool)
                waited_from = loop.time()
                (first,) = submit_all(daemon, pool, [4], k=10)
                await spin()
                assert not first.done()  # every replica busy: it lingers
                (company,) = submit_all(daemon, pool, [5], k=10)
                await spin()
                results = await asyncio.wait_for(asyncio.gather(first, company), 5.0)
                waited = loop.time() - waited_from
                scans.release()
                await asyncio.gather(*parked)
                return results, waited

        (first, company), waited = asyncio.run(run())
        assert (2, 10) in scans.rows  # they rode one scan
        assert first.replica == company.replica
        assert waited >= delay * 0.8  # the wait ended at batch_delay_s, not before

    def test_a_full_batch_does_not_wait_out_the_window(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            loop = asyncio.get_running_loop()
            async with make_daemon(served_index, scans, max_batch_size=3) as daemon:
                parked = await park_replicas(daemon, scans, pool)
                start = loop.time()
                await asyncio.wait_for(
                    asyncio.gather(*submit_all(daemon, pool, range(4, 7), k=10)), 2.0
                )
                served_in = loop.time() - start
                scans.release()
                await asyncio.gather(*parked)
                return served_in

        assert asyncio.run(run()) < 2.0
        assert (3, 10) in scans.rows

    def test_zero_delay_never_lingers_even_when_busy(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            async with make_daemon(served_index, scans, batch_delay_s=0.0) as daemon:
                parked = await park_replicas(daemon, scans, pool)
                served = []
                for row in range(4, 7):
                    served.append(await asyncio.wait_for(daemon.submit(pool[row], k=10), 2.0))
                scans.release()
                await asyncio.gather(*parked)
                return served

        assert len(asyncio.run(run())) == 3


class TestLeader:
    def test_cancelled_leader_hands_its_followers_on(self, served_index):
        _, pool = served_index
        want = truth(served_index, [1, 2])

        async def run():
            async with make_daemon(served_index) as daemon:
                leader, *followers = submit_all(daemon, pool, range(3), k=10)
                await asyncio.sleep(0)  # all three admitted; the leader yielded
                leader.cancel()
                results = await asyncio.wait_for(asyncio.gather(*followers), 5.0)
                with pytest.raises(asyncio.CancelledError):
                    await leader
                return daemon, results

        daemon, results = asyncio.run(run())
        for row, result in enumerate(results):
            assert np.array_equal(result.indices, want[0][row])
        assert daemon.counts["failed"] == 0

    def test_cancelled_lingering_leader_still_serves_its_batch(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            async with make_daemon(served_index, scans, batch_delay_s=0.05) as daemon:
                parked = await park_replicas(daemon, scans, pool)
                leader, follower = submit_all(daemon, pool, [4, 5], k=10)
                await spin()  # the leader lingers: every replica is busy
                leader.cancel()
                result = await asyncio.wait_for(follower, 5.0)
                scans.release()
                await asyncio.gather(*parked)
                return result

        result = asyncio.run(run())
        assert np.array_equal(result.indices, truth(served_index, [5])[0][0])

    def test_failed_inline_batch_fails_over_as_attempt_one(self, served_index):
        _, pool = served_index
        kill = ReplicaKillFault(replica=0, at_call=3)

        async def run():
            index, _ = served_index
            daemon = ServingDaemon(
                index, num_replicas=2, faults=ServingFaults(kill),
                config=ServingConfig(heartbeat_interval_s=None, hedge_after_s=1.0,
                                     attempt_timeout_s=2.0, request_timeout_s=5.0),
            )
            async with daemon:
                for row in range(4):  # two 1-row scans per replica: inline earned
                    await daemon.submit(pool[row], k=10)
                daemon.replica_set._rotation = 0
                results = await asyncio.gather(*submit_all(daemon, pool, [5], k=10))
                return daemon, results

        daemon, results = asyncio.run(run())
        assert kill.fired == [(0, 3)]
        assert daemon.counts["failovers"] >= 1 and daemon.counts["failed"] == 0
        assert [(r.replica, r.attempts) for r in results] == [(1, 2)]
        assert np.array_equal(results[0].indices, truth(served_index, [5])[0][0])

    def test_degraded_mode_goes_to_the_executor(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            async with make_daemon(served_index, scans, num_replicas=1) as daemon:
                for row in range(3):
                    await daemon.submit(pool[row], k=10)
                inline = daemon.counts["inline_scans"]
                daemon._set_degraded("replica_loss", True)
                result = await daemon.submit(pool[4], k=10)
                return daemon, inline, result, threading.get_ident()

        daemon, inline, result, loop_thread = asyncio.run(run())
        assert inline == 2 and daemon.counts["inline_scans"] == inline
        assert scans.threads[-1] != loop_thread
        assert result.degraded and result.replica == 0

    def test_sheds_past_max_queue_within_one_turn(self, served_index):
        _, pool = served_index

        async def run():
            async with make_daemon(served_index, max_queue=3) as daemon:
                results = await asyncio.gather(
                    *submit_all(daemon, pool, range(5), k=10), return_exceptions=True
                )
                return daemon, results

        daemon, results = asyncio.run(run())
        assert [type(r) for r in results[3:]] == [Overloaded, Overloaded]
        assert not any(isinstance(r, Exception) for r in results[:3])
        assert daemon.counts["shed"] == 2 and daemon.counts["ok"] == 3


class TestShutdown:
    def test_drain_resolves_everything_accepted(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            loop = asyncio.get_running_loop()
            daemon = make_daemon(served_index, scans, batch_delay_s=0.05)
            await daemon.start()
            tasks = await park_replicas(daemon, scans, pool)  # in flight
            tasks += submit_all(daemon, pool, [4, 5], k=10)
            await spin()  # a leader lingers (busy)
            tasks += submit_all(daemon, pool, [6, 7], k=10)  # pending behind it
            loop.call_later(0.02, scans.release)
            await asyncio.wait_for(daemon.stop(drain=True), timeout=5.0)
            with pytest.raises(RuntimeError):
                daemon.batcher.try_enqueue(None)
            with pytest.raises(RuntimeError):
                await daemon.submit(pool[0], k=10)
            return tasks

        tasks = asyncio.run(run())
        assert all(task.done() and task.exception() is None for task in tasks)
        want = truth(served_index, range(8))[0]
        for row, task in zip([0, 1, 4, 5, 6, 7], tasks):
            assert np.array_equal(task.result().indices, want[row])

    def test_abort_fails_everything_parked(self, served_index):
        _, pool = served_index
        scans = Scans()

        async def run():
            daemon = make_daemon(served_index, scans)
            await daemon.start()
            try:
                tasks = await park_replicas(daemon, scans, pool)  # in flight
                tasks += submit_all(daemon, pool, [4, 5], k=10)
                await spin()  # a leader lingers (busy)
                tasks += submit_all(daemon, pool, [6, 7], k=10)  # pending
                await asyncio.wait_for(daemon.stop(drain=False), timeout=5.0)
                results = await asyncio.gather(*tasks, return_exceptions=True)
            finally:
                scans.release()
            return daemon, results

        daemon, results = asyncio.run(run())
        assert daemon.batcher.qsize() == 0
        assert all(isinstance(r, RuntimeError) for r in results), results


class TestWaitMetric:
    def test_one_wait_observation_per_request(self, served_index):
        _, pool = served_index

        async def run():
            async with make_daemon(served_index) as daemon:
                await asyncio.gather(
                    *submit_all(daemon, pool, range(3), k=10),
                    *submit_all(daemon, pool, range(3, 5), k=5),
                )

        with obs.observed() as handle:
            asyncio.run(run())
        snapshot = handle.registry.snapshot()
        wait = snapshot[metric_names.SERVE_BATCH_WAIT_S]
        assert wait["count"] == 5 and 0.0 <= wait["max"] < 1.0
        assert snapshot[metric_names.SERVE_BATCH_SIZE]["count"] == 2
        assert snapshot[metric_names.SERVE_BATCHES_TOTAL]["value"] == 2


class _ScaledEncoder:
    """Stub query encoder: raw features times ``scale``."""

    def __init__(self, scale):
        self.scale = scale

    def embed(self, features):
        return np.asarray(features) * self.scale


class TestAdmissionValidation:
    """A query whose float64 ‖q‖² overflows is the client's error: refused at
    admission — as raw features and as the encoder's output — it never
    reaches a replica, a breaker or the retry loop. Two such requests used
    to open both replicas' breakers and fail the next valid request."""

    @pytest.mark.parametrize(
        "case, scale, encoder",
        [
            ("raw features", 1e306, 1.0),  # refused before the encode
            ("embedding", 1e160, None),
            ("encoder output", 1.0, 1e160),  # finite features, overflowing embedding
        ],
    )
    def test_overflowing_queries_are_refused_and_charge_no_replica(
        self, served_index, case, scale, encoder
    ):
        index, pool = served_index
        encoders = {} if encoder is None else {"light": _ScaledEncoder(encoder)}
        mode = None if encoder is None else "light"
        bad = pool[1] * scale
        assert np.isfinite(bad).all()

        async def run():
            daemon = ServingDaemon(
                index, num_replicas=2, query_encoders=encoders,
                config=ServingConfig(heartbeat_interval_s=None, breaker_failure_threshold=1),
            )
            async with daemon:
                for _ in range(2):
                    with pytest.raises(ValueError, match="finite"):
                        await daemon.submit(SearchRequest(bad[None, :], k=10, encoder=mode))
                valid = pool[:1] if encoder is None else pool[:1] / encoder
                served = await daemon.submit(SearchRequest(valid, k=10, encoder=mode))
                return daemon, served, valid

        daemon, served, valid = asyncio.run(run())
        assert [b.state for b in daemon.replica_set.breakers] == ["closed", "closed"]
        assert sum(r.calls for r in daemon.replica_set.replicas) == 1
        assert daemon.counts["retries"] == daemon.counts["failed"] == 0
        embedded = valid if encoder is None else encoders["light"].embed(valid)
        with QueryEngine(index, parallel="never") as engine:
            assert np.array_equal(
                served.indices, engine.search_with_distances(embedded, k=10)[0][0]
            )

    def test_direct_engine_raises_instead_of_ranking_inf_rows(self, served_index):
        index, pool = served_index
        with QueryEngine(index, parallel="never") as engine:
            with pytest.raises(ValueError, match="finite"):
                engine.search_with_distances(pool[:2] * 1e160, k=3)
