"""End-to-end daemon tests: failover, deadlines, degradation, shutdown.

No pytest-asyncio in the toolchain, so every test drives its coroutine
with ``asyncio.run`` — each test gets a fresh event loop, which also
guarantees no daemon state leaks between tests.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import names as metric_names
from repro.resilience.faults import (
    CorruptResponseFault,
    ReplicaKillFault,
    ServingFaults,
    SlowReplicaFault,
)
from repro.retrieval.engine import QueryEngine
from repro.serving import (
    Overloaded,
    RequestFailed,
    ServingConfig,
    ServingDaemon,
)

from tests.serving.conftest import build_index


def quiet_config(**overrides):
    """Heartbeats off and tight timeouts: deterministic, fast tests."""
    defaults = dict(
        heartbeat_interval_s=None,
        request_timeout_s=1.0,
        attempt_timeout_s=0.3,
        backoff_base_s=0.001,
        cache_ttl_s=30.0,
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


def exact_answers(index, pool, k=10):
    engine = QueryEngine(index, parallel="never")
    indices, distances = engine.search_with_distances(pool, k=k)
    engine.close()
    return indices, distances


class TestHealthyServing:
    def test_results_match_exact_engine_scan(self, served_index):
        index, pool = served_index
        want_i, want_d = exact_answers(index, pool)

        async def run():
            async with ServingDaemon(
                index, num_replicas=2, config=quiet_config()
            ) as daemon:
                results = await asyncio.gather(
                    *(daemon.submit(pool[row], k=10) for row in range(len(pool)))
                )
            return results

        results = asyncio.run(run())
        for row, result in enumerate(results):
            assert not result.degraded
            assert result.source == "engine"
            assert np.array_equal(result.indices, want_i[row])
            assert np.allclose(result.distances, want_d[row])

    def test_concurrent_submits_batch_and_cache(self, served_index):
        index, pool = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                await daemon.submit(pool[0], k=10)
                repeat = await daemon.submit(pool[0], k=10)
                return daemon, repeat

        daemon, repeat = asyncio.run(run())
        assert repeat.source == "cache"
        assert daemon.counts["cache_hits"] == 1
        assert daemon.counts["ok"] == 2

    def test_idle_daemon_does_not_linger_but_still_coalesces(self, served_index):
        """Work-conserving batching: with a replica idle a lone miss is
        dispatched at once (batch_delay_s only bounds the wait while every
        replica is busy), and simultaneous misses still share one scan.
        Bounds are ~100x the real numbers (a few ms) so load cannot flake it."""
        index, pool = served_index
        want_i, _ = exact_answers(index, pool[:9])

        async def run(batches):
            async with ServingDaemon(
                index, num_replicas=2, config=quiet_config(batch_delay_s=1.0)
            ) as daemon:
                lone = await daemon.submit(pool[8], k=10)
                assert batches.value == 1
                burst = await asyncio.gather(
                    *(daemon.submit(pool[row], k=10) for row in range(8))
                )
                return daemon, lone, burst

        with obs.observed() as handle:
            batches = handle.registry.counter(metric_names.SERVE_BATCHES_TOTAL)
            daemon, lone, burst = asyncio.run(run(batches))
        assert max(result.latency_s for result in [lone, *burst]) < 0.5
        assert batches.value == 2  # the 8 simultaneous misses rode one scan
        assert daemon.counts["cache_misses"] == 9 and daemon.counts["ok"] == 9
        assert np.array_equal(lone.indices, want_i[8])
        for row, result in enumerate(burst):
            assert result.source == "engine"
            assert np.array_equal(result.indices, want_i[row])

    def test_submit_validation(self, served_index):
        index, pool = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                with pytest.raises(ValueError):
                    await daemon.submit(pool[0], k=0)
                with pytest.raises(ValueError):
                    await daemon.submit(pool[0][:3], k=5)

        asyncio.run(run())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_cannot_poison_its_micro_batch(self, served_index, bad):
        """A NaN/inf row used to ride into the batch, turn every row's
        distances non-finite and fail its finite neighbour too — three
        retries and a breaker failure each. It is refused at admission."""
        index, pool = served_index
        want_i, _ = exact_answers(index, pool[:1])
        poisoned = pool[1].copy()
        poisoned[0] = bad

        async def run():
            async with ServingDaemon(
                index, num_replicas=2, config=quiet_config()
            ) as daemon:
                good, refused = await asyncio.gather(
                    daemon.submit(pool[0], k=10),
                    daemon.submit(poisoned, k=10),
                    return_exceptions=True,
                )
                return daemon, good, refused

        daemon, good, refused = asyncio.run(run())
        assert isinstance(refused, ValueError) and "finite" in str(refused)
        assert np.array_equal(good.indices, want_i[0])
        assert daemon.counts["retries"] == 0
        assert daemon.counts["failed"] == 0

    def test_rejects_after_stop(self, served_index):
        index, pool = served_index

        async def run():
            daemon = ServingDaemon(index, num_replicas=1, config=quiet_config())
            await daemon.start()
            await daemon.stop()
            with pytest.raises(RuntimeError):
                await daemon.submit(pool[0], k=5)

        asyncio.run(run())


class TestFailover:
    def test_replica_killed_mid_run_completes_with_correct_topk(
        self, served_index
    ):
        index, pool = served_index
        want_i, _ = exact_answers(index, pool)
        faults = ServingFaults(ReplicaKillFault(replica=0, at_call=1))

        async def run():
            async with ServingDaemon(
                index, num_replicas=2, config=quiet_config(), faults=faults
            ) as daemon:
                results = await asyncio.gather(
                    *(daemon.submit(pool[row], k=10) for row in range(len(pool)))
                )
                return daemon, results

        daemon, results = asyncio.run(run())
        for row, result in enumerate(results):
            assert np.array_equal(result.indices, want_i[row])
            assert result.replica in (1, None)  # engine scans came from r1
        assert daemon.counts["failovers"] >= 1
        assert daemon.replica_set.states[0] == "dead"
        assert any("crashed" in event for event in daemon.events)

    def test_corrupted_response_fails_over_to_clean_replica(self, served_index):
        index, pool = served_index
        want_i, _ = exact_answers(index, pool[:1], k=5)
        faults = ServingFaults(
            CorruptResponseFault(replica=0, at=[1, 2, 3, 4], seed=7)
        )

        async def run():
            async with ServingDaemon(
                index, num_replicas=2, config=quiet_config(), faults=faults
            ) as daemon:
                result = await daemon.submit(pool[0], k=5)
                return daemon, result

        daemon, result = asyncio.run(run())
        assert np.array_equal(result.indices, want_i[0])
        # Either replica may be tried first (rotation); if 0 went first the
        # corruption was detected and the request still succeeded.
        assert result.replica == 1

    def test_all_replicas_down_raises_request_failed(self, served_index):
        index, pool = served_index
        faults = ServingFaults(
            ReplicaKillFault(replica=0, at_call=1),
            ReplicaKillFault(replica=1, at_call=1),
        )

        async def run():
            async with ServingDaemon(
                index,
                num_replicas=2,
                config=quiet_config(request_timeout_s=0.5, max_attempts=3),
                faults=faults,
            ) as daemon:
                with pytest.raises(RequestFailed):
                    await daemon.submit(pool[0], k=5)
                return daemon

        daemon = asyncio.run(run())
        assert daemon.counts["failed"] == 1
        assert daemon.counts["retries"] >= 1


class TestDeadlineRetryHedge:
    def test_slow_primary_is_hedged_and_answer_comes_from_the_hedge(
        self, served_index
    ):
        index, pool = served_index
        want_i, _ = exact_answers(index, pool[:1], k=5)
        # Every scan on replica 0 stalls well past the hedge trigger but
        # inside the attempt budget — only the hedge can answer quickly.
        faults = ServingFaults(SlowReplicaFault(replica=0, delay_s=0.25))

        async def run():
            async with ServingDaemon(
                index,
                num_replicas=2,
                config=quiet_config(
                    attempt_timeout_s=0.6,
                    hedge_after_s=0.02,
                    request_timeout_s=2.0,
                ),
                faults=faults,
            ) as daemon:
                # Pin the rotation so replica 0 is tried first.
                daemon.replica_set._rotation = 0
                result = await daemon.submit(pool[0], k=5)
                return daemon, result

        daemon, result = asyncio.run(run())
        assert np.array_equal(result.indices, want_i[0])
        assert result.replica == 1
        assert daemon.counts["hedges"] == 1
        assert result.attempts == 1  # the hedge rode inside attempt one

    def test_timeout_then_retry_sequencing(self, served_index):
        index, pool = served_index
        want_i, _ = exact_answers(index, pool[:1], k=5)
        # Replica 0's first scan blows the attempt budget; hedging is off,
        # so the daemon must time the attempt out and retry on replica 1.
        faults = ServingFaults(SlowReplicaFault(replica=0, delay_s=0.3))

        async def run():
            async with ServingDaemon(
                index,
                num_replicas=2,
                config=quiet_config(
                    attempt_timeout_s=0.05,
                    hedge_after_s=None,
                    request_timeout_s=2.0,
                ),
                faults=faults,
            ) as daemon:
                daemon.replica_set._rotation = 0
                result = await daemon.submit(pool[0], k=5)
                return daemon, result

        daemon, result = asyncio.run(run())
        assert np.array_equal(result.indices, want_i[0])
        assert result.replica == 1
        assert result.attempts == 2
        assert daemon.counts["retries"] == 1
        assert daemon.counts["hedges"] == 0

    def test_deadline_is_respected_when_everything_is_slow(self, served_index):
        index, pool = served_index
        faults = ServingFaults(
            SlowReplicaFault(replica=0, delay_s=0.4),
            SlowReplicaFault(replica=1, delay_s=0.4),
        )

        async def run():
            async with ServingDaemon(
                index,
                num_replicas=2,
                config=quiet_config(
                    attempt_timeout_s=0.08,
                    hedge_after_s=None,
                    request_timeout_s=0.25,
                    max_attempts=10,
                ),
                faults=faults,
            ) as daemon:
                loop = asyncio.get_running_loop()
                start = loop.time()
                with pytest.raises(RequestFailed):
                    await daemon.submit(pool[0], k=5)
                return loop.time() - start

        elapsed = asyncio.run(run())
        # Bounded by the request deadline, not 10 full attempt budgets.
        assert elapsed < 1.5


class TestBreakerIntegration:
    def test_repeated_failures_open_the_replica_breaker(self, served_index):
        index, pool = served_index
        # Corruption (unlike a crash) keeps the replica in rotation, so the
        # breaker — not liveness — is what must quarantine it.
        faults = ServingFaults(
            CorruptResponseFault(replica=0, at=range(1, 50))
        )

        async def run():
            async with ServingDaemon(
                index,
                num_replicas=2,
                config=quiet_config(
                    breaker_failure_threshold=2, breaker_cooldown_s=60.0
                ),
                faults=faults,
            ) as daemon:
                for row in range(6):
                    await daemon.submit(pool[row], k=5)
                return daemon

        daemon = asyncio.run(run())
        breaker = daemon.replica_set.breaker_for(0)
        assert breaker.state == "open"
        assert breaker.opens_total >= 1
        assert daemon.replica_set.states[0] == "healthy"  # corrupt, not dead
        # With the breaker open and a long cooldown, replica 0 stopped
        # being scanned after its second corrupt response.
        assert daemon.replica_set.replicas[0].calls <= 3
        assert daemon.counts["ok"] == 6  # every request still answered


class TestDegradation:
    def test_stale_cache_served_when_replicas_die_and_revalidates_on_recovery(
        self, served_index
    ):
        index, pool = served_index
        want_i, _ = exact_answers(index, pool[:1], k=5)

        async def run():
            daemon = ServingDaemon(
                index,
                num_replicas=2,
                config=quiet_config(
                    cache_ttl_s=0.01,
                    request_timeout_s=0.4,
                    attempt_timeout_s=0.1,
                    max_attempts=2,
                ),
            )
            async with daemon:
                first = await daemon.submit(pool[0], k=5)
                await asyncio.sleep(0.03)  # let the entry expire
                # Kill both replicas from here on.
                for replica in daemon.replica_set.replicas:
                    replica.faults = ServingFaults(
                        ReplicaKillFault(replica=replica.replica_id, at_call=1)
                    )
                stale = await daemon.submit(pool[0], k=5)
                assert stale.source == "cache_stale"
                assert stale.degraded
                assert np.array_equal(stale.indices, first.indices)
                # Recovery: clear the faults, let heartbeats revive both.
                for replica in daemon.replica_set.replicas:
                    replica.faults = None
                await daemon._heartbeat_once()
                assert daemon.replica_set.healthy_count() == 2
                fresh = await daemon.submit(pool[0], k=5)
                assert fresh.source == "engine"
                revalidated = await daemon.submit(pool[0], k=5)
                assert revalidated.source == "cache"
                assert not revalidated.degraded
                return daemon, stale

        daemon, stale = asyncio.run(run())
        assert np.array_equal(stale.indices, want_i[0])
        assert daemon.counts["stale_served"] == 1

    def test_replica_loss_enters_and_exits_degraded_mode(self, served_index):
        index, pool = served_index

        async def run():
            daemon = ServingDaemon(
                index,
                num_replicas=2,
                config=quiet_config(degrade_min_healthy=2),
            )
            async with daemon:
                daemon.replica_set.replicas[0].faults = ServingFaults(
                    ReplicaKillFault(replica=0, at_call=1)
                )
                await daemon._heartbeat_once()
                assert daemon.degraded
                assert "replica_loss" in daemon.degraded_reasons
                degraded_result = await daemon.submit(pool[0], k=5)
                assert degraded_result.degraded
                daemon.replica_set.replicas[0].faults = None
                await daemon._heartbeat_once()
                assert not daemon.degraded
                return daemon, degraded_result

        daemon, degraded_result = asyncio.run(run())
        assert daemon.counts["degraded_transitions"] == 2
        assert any("degraded mode entered" in e for e in daemon.events)
        assert any("degraded mode exited" in e for e in daemon.events)

    def test_degraded_results_skip_rerank_and_are_not_cached(self, served_index):
        index, pool = served_index

        async def run():
            daemon = ServingDaemon(
                index,
                num_replicas=1,
                config=quiet_config(degraded_k_cap=3),
            )
            async with daemon:
                daemon._set_degraded("replica_loss", True)
                capped = await daemon.submit(pool[0], k=10)
                assert capped.degraded
                assert capped.indices.shape == (3,)
                daemon._set_degraded("replica_loss", False)
                full = await daemon.submit(pool[0], k=10)
                # The degraded answer must not have been cached.
                assert full.source == "engine"
                assert full.indices.shape == (10,)

        asyncio.run(run())

    def test_overload_sheds_with_backpressure(self, served_index):
        index, pool = served_index

        async def run():
            daemon = ServingDaemon(
                index, num_replicas=1, config=quiet_config(max_queue=2)
            )
            await daemon.start()
            # Freeze the collector so the queue bound is actually reached —
            # admission control must shed, not block or buffer unboundedly.
            await daemon.batcher._stop_collector()
            tasks = [
                asyncio.create_task(daemon.submit(pool[row], k=5))
                for row in range(4)
            ]
            await asyncio.sleep(0.01)
            shed = [
                t for t in tasks
                if t.done() and isinstance(t.exception(), Overloaded)
            ]
            assert len(shed) == 2  # queue holds 2; the rest shed immediately
            # Backpressure recovery: restart the collector and the two
            # parked requests serve normally.
            daemon.batcher.start()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await daemon.stop()
            return daemon, results

        daemon, results = asyncio.run(run())
        served = [r for r in results if not isinstance(r, Exception)]
        assert len(served) == 2
        assert daemon.counts["shed"] == 2
        assert daemon.counts["ok"] == 2


class TestShutdown:
    def test_drain_completes_inflight_requests(self, served_index):
        index, pool = served_index
        faults = ServingFaults(SlowReplicaFault(replica=0, delay_s=0.05))

        async def run():
            daemon = ServingDaemon(
                index,
                num_replicas=1,
                config=quiet_config(request_timeout_s=5.0, attempt_timeout_s=1.0),
                faults=faults,
            )
            await daemon.start()
            pending = [
                asyncio.create_task(daemon.submit(pool[row], k=5))
                for row in range(6)
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            await daemon.stop(drain=True)
            results = await asyncio.gather(*pending, return_exceptions=True)
            return daemon, results

        daemon, results = asyncio.run(run())
        failures = [r for r in results if isinstance(r, Exception)]
        assert not failures, failures
        assert daemon.counts["ok"] == 6

    def test_abort_fails_parked_requests(self, served_index):
        index, pool = served_index
        faults = ServingFaults(SlowReplicaFault(replica=0, delay_s=0.2))

        async def run():
            daemon = ServingDaemon(
                index,
                num_replicas=1,
                config=quiet_config(
                    request_timeout_s=5.0, attempt_timeout_s=1.0,
                    max_batch_size=1, batch_delay_s=0.0,
                ),
                faults=faults,
            )
            await daemon.start()
            pending = [
                asyncio.create_task(daemon.submit(pool[row], k=5))
                for row in range(4)
            ]
            await asyncio.sleep(0.02)  # first scan in flight, rest parked
            await daemon.stop(drain=False)
            results = await asyncio.gather(*pending, return_exceptions=True)
            return results

        results = asyncio.run(run())
        assert any(isinstance(r, Exception) for r in results)


class _ScanThreads:
    """A fault-plan hook that only watches: the thread each scan ran on."""

    def __init__(self):
        self.seen: dict[tuple[int, int], int] = {}

    def before_scan(self, replica, call):
        self.seen[(replica, call)] = threading.get_ident()


class TestInlineScans:
    """A replica that has proven fast scans on the loop thread; its first
    scan, a wider batch than it has proven, and every scan after a slow or
    failed one take an executor thread, where hedges and timeouts work."""

    #: Inline bound 0.1 s (a tenth of the hedge trigger): a loaded CI box
    #: cannot push a 200-row scan past it, so the paths below are exact.
    ROOMY = dict(hedge_after_s=1.0, attempt_timeout_s=2.0, request_timeout_s=5.0)

    @staticmethod
    async def _warm(daemon, pool, rounds=3):
        """``rounds`` single-row scans per replica (rotation alternates)."""
        for row in range(rounds * len(daemon.replica_set)):
            await daemon.submit(pool[row], k=9)

    def test_first_scan_and_wider_batches_take_a_thread_then_run_inline(
        self, served_index
    ):
        index, pool = served_index
        threads = _ScanThreads()

        async def wide(daemon, k):
            burst = await asyncio.gather(
                *(daemon.submit(pool[row], k=k) for row in range(4))
            )
            return burst[0].replica

        async def run():
            async with ServingDaemon(
                index, num_replicas=2, config=quiet_config(**self.ROOMY),
                faults=ServingFaults(threads),
            ) as daemon:
                await self._warm(daemon, pool)
                served_by = [await wide(daemon, k) for k in (5, 4, 3)]
                return daemon, threading.get_ident(), served_by

        daemon, loop_thread, served_by = asyncio.run(run())
        for replica in (0, 1):
            assert threads.seen[(replica, 1)] != loop_thread  # fresh replica
            assert threads.seen[(replica, 2)] == loop_thread
            assert threads.seen[(replica, 3)] == loop_thread
        # Four rows is wider than either replica has proven: each one's first
        # such batch takes a thread, the next runs inline.
        assert served_by == [0, 1, 0]
        assert threads.seen[(0, 4)] != loop_thread
        assert threads.seen[(1, 4)] != loop_thread
        assert threads.seen[(0, 5)] == loop_thread
        assert daemon.counts["inline_scans"] == 5
        assert daemon.counts["retries"] == daemon.counts["hedges"] == 0

    def test_bound_below_the_scan_time_means_no_inline_scan(self, served_index):
        index, pool = served_index
        want_i, _ = exact_answers(index, pool, k=9)

        async def run():
            # A tenth of a 1 us hedge trigger: no real scan is that fast.
            async with ServingDaemon(
                index, num_replicas=2, config=quiet_config(hedge_after_s=1e-6)
            ) as daemon:
                results = [await daemon.submit(pool[row], k=9) for row in range(8)]
                return daemon, results

        daemon, results = asyncio.run(run())
        assert daemon.counts["inline_scans"] == 0
        for row, result in enumerate(results):
            assert np.array_equal(result.indices, want_i[row])

    @pytest.mark.parametrize(
        "fault, state_after",
        [
            (ReplicaKillFault(replica=0, at_call=4), "dead"),
            (CorruptResponseFault(replica=0, at=[4], seed=7), "healthy"),
        ],
        ids=["kill", "corrupt"],
    )
    def test_fault_on_an_inline_replica_fails_over_as_before(
        self, served_index, fault, state_after
    ):
        index, pool = served_index
        want_i, want_d = exact_answers(index, pool[6:7], k=9)
        threads = _ScanThreads()
        fault.fired.clear()  # parametrize shares the instance across runs

        async def run():
            async with ServingDaemon(
                index, num_replicas=2, config=quiet_config(**self.ROOMY),
                faults=ServingFaults(threads, fault),
            ) as daemon:
                await self._warm(daemon, pool)
                daemon.replica_set._rotation = 0  # replica 0, call 4, inline
                result = await daemon.submit(pool[6], k=9)
                return daemon, threading.get_ident(), result

        daemon, loop_thread, result = asyncio.run(run())
        assert fault.fired == [(0, 4)]
        assert threads.seen[(0, 4)] == loop_thread  # it fired on the loop
        assert np.array_equal(result.indices, want_i[0])
        assert np.array_equal(result.distances, want_d[0])
        assert result.replica == 1 and result.attempts == 2
        assert daemon.counts["failovers"] == 1
        assert daemon.counts["retries"] == 1
        assert daemon.counts["failed"] == 0
        assert daemon.replica_set.breaker_for(0).consecutive_failures == 1
        assert daemon.replica_set.states[0] == state_after
        assert daemon._inline_rows[0] == 0  # and the privilege went with it

    def test_stall_on_an_inline_replica_is_served_then_sent_back_to_a_thread(
        self, served_index
    ):
        index, pool = served_index
        want_i, _ = exact_answers(index, pool[6:8], k=9)
        threads = _ScanThreads()
        stall = SlowReplicaFault(replica=0, delay_s=0.3, at={4, 5})

        async def run():
            # Inline bound 10 ms; the stalls are 30x that.
            async with ServingDaemon(
                index, num_replicas=2,
                config=quiet_config(
                    hedge_after_s=0.1, attempt_timeout_s=2.0, request_timeout_s=5.0
                ),
                faults=ServingFaults(threads, stall),
            ) as daemon:
                await self._warm(daemon, pool)
                daemon.replica_set._rotation = 0
                late = await daemon.submit(pool[6], k=9)
                hedges_after_late = daemon.counts["hedges"]
                daemon.replica_set._rotation = 0
                hedged = await daemon.submit(pool[7], k=9)
                return daemon, threading.get_ident(), late, hedges_after_late, hedged

        daemon, loop_thread, late, hedges_after_late, hedged = asyncio.run(run())
        # Call 4 stalled on the loop: nothing could hedge it, the late answer
        # is used and is right.
        assert threads.seen[(0, 4)] == loop_thread
        assert np.array_equal(late.indices, want_i[0])
        assert late.replica == 0 and late.attempts == 1 and late.latency_s >= 0.3
        assert hedges_after_late == 0
        # Call 5 is back on a thread, where the second stall is hedged.
        assert threads.seen[(0, 5)] != loop_thread
        assert np.array_equal(hedged.indices, want_i[1])
        assert hedged.replica == 1 and hedged.attempts == 1
        assert daemon.counts["hedges"] == 1
        assert daemon.counts["failed"] == 0 and daemon.counts["retries"] == 0

    def test_inline_and_executor_answers_are_bit_equal(self, served_index):
        index, pool = served_index
        threads = _ScanThreads()

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config(**self.ROOMY),
                faults=ServingFaults(threads),
            ) as daemon:
                def batch():
                    return asyncio.gather(
                        *(daemon.submit(pool[row], k=9) for row in range(4))
                    )

                on_thread = await batch()
                daemon.cache.clear()
                inline = await batch()
                return threading.get_ident(), on_thread, inline

        loop_thread, on_thread, inline = asyncio.run(run())
        assert threads.seen[(0, 1)] != loop_thread
        assert threads.seen[(0, 2)] == loop_thread
        for a, b in zip(on_thread, inline):
            assert a.source == b.source == "engine"
            assert a.distances.dtype == np.float64
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.distances, b.distances)

    @pytest.mark.parametrize("drain", [True, False])
    def test_stop_with_inline_traffic_in_flight_resolves_every_future(
        self, served_index, drain
    ):
        index, pool = served_index

        async def run():
            daemon = ServingDaemon(
                index, num_replicas=2,
                config=quiet_config(max_batch_size=2, **self.ROOMY),
            )
            await daemon.start()
            await self._warm(daemon, pool)
            pending = [
                asyncio.create_task(daemon.submit(pool[row % len(pool)], k=1 + row))
                for row in range(24)
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            await daemon.stop(drain=drain)
            results = await asyncio.wait_for(
                asyncio.gather(*pending, return_exceptions=True), timeout=5.0
            )
            return daemon, results

        daemon, results = asyncio.run(run())
        assert len(results) == 24
        assert daemon.counts["inline_scans"] > 0
        failures = [r for r in results if isinstance(r, Exception)]
        if drain:
            assert not failures, failures
        else:
            assert all(isinstance(f, RuntimeError) for f in failures), failures


class TestPerRequestNprobe:
    """Per-request IVF probe width, and the cache keyed on search config."""

    def _ivf_daemon(self, index, **config_overrides):
        from repro.retrieval.ivf import IVFIndex

        ivf = IVFIndex.build(index, num_cells=8, seed=0)
        daemon = ServingDaemon(
            index,
            num_replicas=2,
            engine_kwargs={"ivf": ivf, "nprobe": 4},
            config=quiet_config(**config_overrides),
        )
        return daemon, ivf

    def _truths(self, index, ivf, query, k, nprobes):
        """Expected (indices, distances) per nprobe from a direct engine."""
        truths = {}
        with QueryEngine(index, ivf=ivf, nprobe=4) as engine:
            for nprobe in nprobes:
                truths[nprobe] = engine.search_with_distances(
                    query[None, :], k=k, nprobe=nprobe
                )
        return truths

    def test_nprobe_forwarded_to_ivf_replicas(self, served_index):
        from repro.retrieval.search import SearchRequest

        index, pool = served_index
        daemon, ivf = self._ivf_daemon(index)
        truths = self._truths(index, ivf, pool[0], 5, (1, 0))

        async def run():
            async with daemon:
                pruned = await daemon.submit(
                    SearchRequest(queries=pool[:1], k=5, nprobe=1)
                )
                exact = await daemon.submit(
                    SearchRequest(queries=pool[:1], k=5, nprobe=0)
                )
            return pruned, exact

        pruned, exact = asyncio.run(run())
        assert np.array_equal(pruned.indices, truths[1][0][0])
        assert np.array_equal(exact.indices, truths[0][0][0])

    def test_cell_count_builds_one_layout_for_all_replicas(self, served_index):
        """``engine_kwargs={"ivf": <int>}`` trains the coarse quantizer once:
        every replica scans the same IVFIndex object, and answers equal a
        daemon handed that layout prebuilt."""
        from repro.retrieval.search import SearchRequest

        index, pool = served_index
        counted = ServingDaemon(
            index,
            num_replicas=3,
            engine_kwargs={"ivf": 8, "nprobe": 4},
            config=quiet_config(),
        )
        layouts = [replica.engine.ivf for replica in counted.replica_set.replicas]
        assert layouts[0] is not None
        assert all(layout is layouts[0] for layout in layouts)
        prebuilt = ServingDaemon(
            index,
            num_replicas=3,
            engine_kwargs={"ivf": layouts[0], "nprobe": 4},
            config=quiet_config(),
        )

        async def run(daemon):
            async with daemon:
                return [
                    await daemon.submit(SearchRequest(queries=pool[row : row + 1], k=5))
                    for row in range(6)
                ]

        for got, want in zip(asyncio.run(run(counted)), asyncio.run(run(prebuilt))):
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.distances, want.distances)

    def test_nprobe_rejected_without_ivf(self, served_index):
        from repro.retrieval.search import SearchRequest

        index, pool = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                with pytest.raises(ValueError, match="no IVF layer"):
                    await daemon.submit(
                        SearchRequest(queries=pool[:1], k=5, nprobe=2)
                    )

        asyncio.run(run())

    def test_cache_never_crosses_search_configs(self, served_index):
        """Regression: an answer computed under one (nprobe, rerank) must
        never be returned for a request that asked for another — each
        config hits its own cache entry and matches its own engine truth.
        """
        from repro.retrieval.search import SearchRequest

        index, pool = served_index
        daemon, ivf = self._ivf_daemon(index)
        truths = self._truths(index, ivf, pool[0], 5, (1, 2, 0))

        def request(nprobe):
            return SearchRequest(queries=pool[:1], k=5, nprobe=nprobe)

        async def run():
            async with daemon:
                first = {
                    nprobe: await daemon.submit(request(nprobe))
                    for nprobe in (1, 2, 0)
                }
                misses = daemon.counts["cache_misses"]
                hits_before = daemon.counts["cache_hits"]
                second = {
                    nprobe: await daemon.submit(request(nprobe))
                    for nprobe in (1, 2, 0)
                }
                hits = daemon.counts["cache_hits"] - hits_before
            return first, misses, second, hits

        first, misses, second, hits = asyncio.run(run())
        assert misses == 3  # one entry per search config, no sharing
        assert hits == 3  # and each repeat hit its own entry
        for nprobe in (1, 2, 0):
            want_i, want_d = truths[nprobe]
            for result in (first[nprobe], second[nprobe]):
                assert np.array_equal(result.indices, want_i[0])
                assert np.allclose(result.distances, want_d[0])

    def test_rerank_hint_keys_its_own_cache_entry(self, served_index):
        from repro.retrieval.search import SearchRequest

        index, pool = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                await daemon.submit(SearchRequest(queries=pool[:1], k=5))
                misses = daemon.counts["cache_misses"]
                await daemon.submit(
                    SearchRequest(queries=pool[:1], k=5, rerank=False)
                )
                await daemon.submit(
                    SearchRequest(queries=pool[:1], k=5, rerank=True)
                )
                return misses, daemon.counts["cache_misses"]

        misses_after_first, misses_total = asyncio.run(run())
        assert misses_after_first == 1
        assert misses_total == 3  # each rerank hint is its own entry


class _HalvesEncoder:
    """Stub query encoder: raw (2·dim,) features -> weighted half-sum.

    Deterministic and shape-changing, so tests can verify the daemon
    scans the *embedded* vector and that distinct modes produce distinct
    answers for one raw query.
    """

    def __init__(self, dim, weight=0.5):
        self.dim = dim
        self.weight = weight

    def embed(self, features):
        features = np.asarray(features, dtype=np.float64)
        return self.weight * features[:, : self.dim] + (
            1.0 - self.weight
        ) * features[:, self.dim :]


class TestQueryEncoders:
    def test_encoder_request_scans_the_embedded_query(self, served_index):
        index, _ = served_index
        encoder = _HalvesEncoder(index.dim)
        raw = np.arange(2.0 * index.dim)
        want_i, want_d = exact_answers(index, encoder.embed(raw[None, :]), k=5)

        async def run():
            async with ServingDaemon(
                index,
                num_replicas=1,
                config=quiet_config(),
                query_encoders={"light": encoder},
            ) as daemon:
                from repro.retrieval.search import SearchRequest

                return await daemon.submit(
                    SearchRequest(queries=raw[None, :], k=5, encoder="light")
                )

        result = asyncio.run(run())
        assert np.array_equal(result.indices, want_i[0])
        assert np.allclose(result.distances, want_d[0])

    def test_unregistered_mode_rejected(self, served_index):
        index, _ = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                from repro.retrieval.search import SearchRequest

                with pytest.raises(ValueError, match="no such query encoder"):
                    await daemon.submit(
                        SearchRequest(
                            queries=np.zeros((1, 2 * index.dim)),
                            k=5,
                            encoder="light",
                        )
                    )

        asyncio.run(run())

    def test_invalid_encoder_map_rejected_at_construction(self, served_index):
        index, _ = served_index
        with pytest.raises(ValueError, match="full.*light|'full'/'light'"):
            ServingDaemon(
                index, config=quiet_config(),
                query_encoders={"medium": _HalvesEncoder(index.dim)},
            )
        with pytest.raises(ValueError, match="embed"):
            ServingDaemon(
                index, config=quiet_config(),
                query_encoders={"light": object()},
            )

    def test_bad_encoder_output_shape_is_loud(self, served_index):
        index, _ = served_index

        async def run():
            async with ServingDaemon(
                index,
                num_replicas=1,
                config=quiet_config(),
                # Encoder emits 2·dim columns — not the index's dim.
                query_encoders={"light": _HalvesEncoder(2 * index.dim)},
            ) as daemon:
                from repro.retrieval.search import SearchRequest

                with pytest.raises(ValueError, match="produced shape"):
                    await daemon.submit(
                        SearchRequest(
                            queries=np.zeros((1, 4 * index.dim)),
                            k=5,
                            encoder="light",
                        )
                    )

        asyncio.run(run())

    def test_repeat_raw_query_caches_per_mode(self, served_index):
        """One raw query under full and light: two misses, then two hits
        — each mode its own entry, answers never aliased across modes."""
        index, _ = served_index
        full = _HalvesEncoder(index.dim, weight=1.0)
        light = _HalvesEncoder(index.dim, weight=0.0)
        raw = np.linspace(-1.0, 1.0, 2 * index.dim)

        async def run():
            async with ServingDaemon(
                index,
                num_replicas=1,
                config=quiet_config(),
                query_encoders={"full": full, "light": light},
            ) as daemon:
                from repro.retrieval.search import SearchRequest

                results = {}
                for mode in ("full", "light"):
                    for _ in range(2):
                        results[mode] = await daemon.submit(
                            SearchRequest(
                                queries=raw[None, :], k=5, encoder=mode
                            )
                        )
                return daemon.counts, results

        counts, results = asyncio.run(run())
        assert counts["cache_misses"] == 2
        assert counts["cache_hits"] == 2
        assert results["full"].source == "cache"
        # The two modes embed the raw query differently, so their cached
        # answers differ — aliasing would have returned full's indices.
        want_light, _ = exact_answers(index, light.embed(raw[None, :]), k=5)
        assert np.array_equal(results["light"].indices, want_light[0])
        assert not np.array_equal(
            results["full"].indices, results["light"].indices
        )

    def test_encode_time_metric_recorded(self, served_index):
        from repro import obs as obs_module
        from repro.obs import names as metric_names

        index, _ = served_index
        handle = obs_module.enable_observability()
        try:

            async def run():
                async with ServingDaemon(
                    index,
                    num_replicas=1,
                    config=quiet_config(),
                    query_encoders={"light": _HalvesEncoder(index.dim)},
                ) as daemon:
                    from repro.retrieval.search import SearchRequest

                    raw = np.ones(2 * index.dim)
                    for _ in range(2):  # second submit is a cache hit
                        await daemon.submit(
                            SearchRequest(
                                queries=raw[None, :], k=5, encoder="light"
                            )
                        )

            asyncio.run(run())
            histogram = handle.registry.histogram(
                metric_names.QUERY_ENCODE_TIME
            )
            # Exactly one encode: the repeat hit the cache *before* paying
            # even the light encoder.
            assert histogram.count == 1
        finally:
            obs_module.disable_observability()
