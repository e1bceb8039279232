#!/usr/bin/env python
"""CI smoke test for the mutable index and its serving integration.

Exercises the headline mutable contract end to end on a tiny corpus:

- a seeded interleaving of ``add`` / ``remove`` / ``compact`` leaves the
  index bit-identical to a from-scratch rebuild over the surviving rows
  (the parity invariant behind the segment/tombstone design),
- compaction is invisible to queries: pre- and post-compact searches
  return the same rankings, and the generation counter advances,
- the serving daemon routes :class:`MutationRequest` through
  ``daemon.mutate`` and invalidates its cache, so a cached answer is
  re-scanned after the corpus changed underneath it,
- the unified :class:`SearchRequest` API answers identically to the raw
  array path, and ``nprobe`` without an IVF layer raises ``ValueError``,
- an IVF-backed base keeps its engine through removals: ``nprobe`` still
  prunes, full probe equals the rebuild, and a save/load round trip
  answers the same at both.

Budget: well under 5 seconds. Run from the repository root::

    python scripts/smoke_mutable.py
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.retrieval import (
    MutableIndex,
    MutationRequest,
    QuantizedIndex,
    SearchRequest,
)
from repro.retrieval.persistence import load_mutable_index, save_mutable_index
from repro.serving import ServingConfig, ServingDaemon


def main() -> int:
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n_db, m, k_words, dim = 300, 4, 16, 8
    codebooks = rng.normal(size=(m, k_words, dim))
    base = rng.normal(size=(n_db, dim))
    queries = rng.normal(size=(12, dim))
    k = 10

    index = MutableIndex.from_index(QuantizedIndex.build(codebooks, base))

    # Seeded interleaving: three add/remove rounds, compact mid-stream.
    mutations = 0
    for round_no in range(3):
        added = index.add(rng.normal(size=(40, dim)))
        live = index.live_ids()
        removed = index.remove(
            rng.choice(live, size=12, replace=False)
        )
        mutations += added.added + removed.removed
        if round_no == 1:
            before = index.search(queries, k=k)
            compacted = index.compact()
            assert compacted.segments == 1 and compacted.tombstones == 0
            assert np.array_equal(index.search(queries, k=k), before), (
                "compaction changed query results"
            )

    # Parity: bit-identical to a from-scratch rebuild over survivors.
    rebuilt, external = index.rebuild()
    got = index.search(queries, k=k)
    want = external[rebuilt.search(queries, k=k)]
    assert np.array_equal(got, want), "mutable/rebuild parity broken"

    # Unified API answers match; nprobe without IVF is a hard error.
    served = index.serve(SearchRequest(queries=queries, k=k))
    assert np.array_equal(served.indices, got)
    assert served.source == "mutable"
    try:
        index.search_with_distances(queries, k=k, nprobe=4)
    except ValueError:
        pass
    else:
        raise AssertionError("nprobe without an IVF layer must raise")

    # An IVF-backed base with removals: the probe still prunes it, and the
    # tombstones survive a save/load round trip.
    ivf_kwargs = {"ivf": 12, "nprobe": 1}
    backed = MutableIndex.from_index(
        QuantizedIndex.build(codebooks, rng.normal(size=(600, dim))),
        engine_kwargs=ivf_kwargs,
    )
    backed.remove(backed.live_ids()[::7])
    pruned = backed.search_with_distances(queries, k)
    full = backed.search_with_distances(queries, k, nprobe=12)
    assert not np.array_equal(pruned[0], full[0]), "nprobe ignored after a removal"
    rebuilt, external = backed.rebuild()
    assert np.array_equal(full[0], external[rebuilt.search(queries, k=k)]), (
        "full probe lost rebuild parity"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutable.npz")
        save_mutable_index(backed, path)
        loaded = load_mutable_index(path, engine_kwargs=ivf_kwargs)
    for nprobe, want in ((1, pruned), (12, full)):
        got = loaded.search_with_distances(queries, k, nprobe=nprobe)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (
            f"save/load changed answers at nprobe={nprobe}"
        )
    backed.close()
    loaded.close()

    # Daemon path: mutations flow through, the cache never serves stale.
    async def daemon_round() -> tuple:
        daemon = ServingDaemon(
            index,
            num_replicas=2,
            config=ServingConfig(heartbeat_interval_s=None),
        )
        async with daemon:
            first = await daemon.submit(queries[0], k=k)
            cached = await daemon.submit(queries[0], k=k)
            assert cached.source == "cache", cached.source
            result = await daemon.mutate(
                MutationRequest(op="add", vectors=rng.normal(size=(25, dim)))
            )
            assert result.added == 25
            await daemon.mutate(
                MutationRequest(
                    op="remove", ids=index.live_ids()[:5]
                )
            )
            compacted = await daemon.mutate(MutationRequest(op="compact"))
            after = await daemon.submit(queries[0], k=k)
            assert after.source != "cache", "mutation left the cache warm"
        return first, compacted, after, daemon

    first, compacted, after, daemon = asyncio.run(daemon_round())
    assert daemon.counts["mutations"] == 3, dict(daemon.counts)
    assert compacted.segments == 1

    # Post-mutation daemon answers equal a fresh rebuild's answers.
    rebuilt, external = index.rebuild()
    want_row = external[rebuilt.search(queries[:1], k=k)][0]
    assert np.array_equal(after.indices, want_row), "daemon lost parity"

    index.close()
    elapsed = time.perf_counter() - start
    print(
        f"mutable smoke ok: {mutations} mutations across "
        f"{compacted.generation} generations, rebuild parity exact, "
        f"daemon cache invalidated, IVF base pruned through removals and "
        f"save/load ({elapsed:.2f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
