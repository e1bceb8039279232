#!/usr/bin/env python
"""CI smoke test for the resilient serving daemon.

Boots a two-replica daemon over a random quantized index, then drives a
closed-loop burst of seeded traffic while injecting the two headline
serving faults — replica 0 is killed mid-run and replica 1 gets a seeded
slow-worker stall — and asserts the resilience contract:

- zero failed requests (failover + retry + hedging absorb the faults),
- every engine-served answer matches the exact serial scan (the daemon
  never degrades quality silently: non-degraded results are bit-identical
  to ``QueryEngine`` outside degraded windows),
- the crash actually fired (failover observed, crash event logged),
- short scans ran inline on the event-loop thread once a replica had proven
  fast (``counts["inline_scans"] > 0``), and the seeded stall — which an
  inline scan cannot be hedged out of — fired and still failed no request,
- batching is work-conserving: before the burst, a lone request on an idle
  daemon is answered without paying ``batch_delay_s``,
- a batch leader cancelled by its client still serves the requests that
  rode its loop turn (it hands them to a successor leader),
- shutdown drains cleanly.

Budget: well under 5 seconds. Run from the repository root::

    python scripts/smoke_serve.py
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.resilience.faults import (
    ReplicaKillFault,
    ServingFaults,
    SlowReplicaFault,
)
from repro.retrieval.engine import QueryEngine
from repro.retrieval.index import QuantizedIndex
from repro.serving import ServingConfig, ServingDaemon, TrafficGenerator


async def run() -> tuple:
    rng = np.random.default_rng(0)
    n_db, m, k_words, dim = 400, 4, 16, 8
    codebooks = rng.normal(size=(m, k_words, dim))
    codes = rng.integers(0, k_words, size=(n_db, m))
    index = QuantizedIndex.build(
        codebooks, rng.normal(size=(n_db, dim)), codes=codes
    )
    # Wider than the burst, so most requests miss the cache and replica 1
    # scans often enough to reach its seeded stall.
    pool = rng.normal(size=(96, dim))

    # An idle replica dispatches at once: batch_delay_s bounds the wait for
    # company only while every replica is busy.
    idle = ServingDaemon(
        index,
        num_replicas=2,
        config=ServingConfig(heartbeat_interval_s=None, batch_delay_s=0.5),
    )
    async with idle:
        lone = await idle.submit(pool[0], k=10)
    assert lone.latency_s < 0.25, (
        f"lone request on an idle daemon took {lone.latency_s:.3f}s "
        "— it lingered for company"
    )

    # The first submit of a turn leads the batch; cancelled while it waits,
    # it hands its followers on instead of stranding them.
    async with ServingDaemon(
        index, num_replicas=2, config=ServingConfig(heartbeat_interval_s=None)
    ) as fresh:
        leader, *followers = [
            asyncio.create_task(fresh.submit(pool[row], k=10)) for row in range(4)
        ]
        await asyncio.sleep(0)  # all four admitted; the leader has yielded
        leader.cancel()
        rode = await asyncio.wait_for(asyncio.gather(*followers), 2.0)
    assert leader.cancelled() and len(rode) == 3, "a cancelled leader stranded its batch"

    faults = ServingFaults(
        ReplicaKillFault(replica=0, at_call=3),
        SlowReplicaFault(replica=1, delay_s=0.08, at={6}),
    )
    daemon = ServingDaemon(
        index,
        num_replicas=2,
        config=ServingConfig(
            heartbeat_interval_s=0.05,
            attempt_timeout_s=0.3,
            request_timeout_s=2.0,
        ),
        faults=faults,
    )
    async with daemon:
        generator = TrafficGenerator(daemon, pool, k=10, seed=1)
        report = await generator.run_closed(96, clients=8)
    return index, pool, daemon, report, faults, rode


def main() -> int:
    start = time.perf_counter()
    index, pool, daemon, report, faults, rode = asyncio.run(run())

    assert report.n_failed == 0, (
        f"{report.n_failed} requests failed under injected faults: "
        + "; ".join(r.error for r in report.records if not r.ok)
    )
    assert report.n_requests == 96 and report.n_ok == 96

    # The kill fault actually fired and the daemon failed over.
    kill, stall = faults.faults
    assert kill.fired, "the replica-kill fault never fired"
    assert daemon.replica_set.states[0] == "dead", daemon.replica_set.states
    assert daemon.counts["failovers"] >= 1, dict(daemon.counts)
    assert any("crashed" in event for event in daemon.events), daemon.events

    # Replica 1 earned inline scans; its stall fired and cost no request
    # (report.n_failed == 0 above), inline or not.
    assert daemon.counts["inline_scans"] > 0, dict(daemon.counts)
    assert stall.fired == [(1, 6)], stall.fired

    # Outside degraded windows answers equal the exact serial scan.
    engine = QueryEngine(index, parallel="never")
    want_indices, want_distances = engine.search_with_distances(pool, k=10)
    engine.close()
    for row, result in enumerate(rode, start=1):
        assert np.array_equal(result.indices, want_indices[row]), row

    async def parity() -> None:
        clean = ServingDaemon(
            index,
            num_replicas=1,
            config=ServingConfig(heartbeat_interval_s=None),
        )
        async with clean:
            for row in range(len(pool)):
                result = await clean.submit(pool[row], k=10)
                assert not result.degraded
                assert np.array_equal(result.indices, want_indices[row]), row
                assert np.allclose(result.distances, want_distances[row]), row

    asyncio.run(parity())

    # Latency report is well-formed (the bench `serve` phase persists it).
    stats = report.as_dict()
    assert stats["qps"] > 0
    assert (
        0
        <= stats["latency_p50_ms"]
        <= stats["latency_p95_ms"]
        <= stats["latency_p99_ms"]
    ), stats

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"serve smoke took {elapsed:.2f}s (budget 5 s)"
    print(
        "serve smoke ok: 96/96 requests under replica-kill + slow-worker "
        f"faults, failovers={daemon.counts['failovers']}, "
        f"retries={daemon.counts['retries']}, "
        f"hedges={daemon.counts['hedges']}, "
        f"inline_scans={daemon.counts['inline_scans']}, cancelled leader "
        f"handed off {len(rode)}, parity exact "
        f"({elapsed:.2f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
