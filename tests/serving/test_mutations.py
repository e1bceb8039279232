"""Daemon mutation routing: ``daemon.mutate`` over a MutableIndex.

Same ``asyncio.run``-per-test convention as ``test_daemon.py``. The
contract under test: mutations serialize through the daemon, every
mutation invalidates the result cache (no stale answers over a changed
corpus), queries keep flowing during mutations, and a daemon over an
immutable index refuses mutations loudly.
"""

import asyncio

import numpy as np
import pytest

from repro.retrieval import MutableIndex, MutationRequest, SearchRequest
from repro.serving import ServingConfig, ServingDaemon

from tests.serving.conftest import build_index


def quiet_config(**overrides):
    defaults = dict(
        heartbeat_interval_s=None,
        request_timeout_s=1.0,
        attempt_timeout_s=0.3,
        backoff_base_s=0.001,
        cache_ttl_s=30.0,
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


def build_mutable(seed=0):
    index, pool = build_index(seed=seed)
    return MutableIndex.from_index(index), pool


class TestMutationRouting:
    def test_add_remove_compact_through_daemon(self):
        mutable, pool = build_mutable()
        rng = np.random.default_rng(1)

        async def run():
            async with ServingDaemon(
                mutable, num_replicas=2, config=quiet_config()
            ) as daemon:
                before = daemon.n_db
                added = await daemon.mutate(
                    MutationRequest(op="add", vectors=rng.normal(size=(30, 6)))
                )
                removed = await daemon.mutate(
                    MutationRequest(op="remove", ids=mutable.live_ids()[:10])
                )
                compacted = await daemon.mutate(MutationRequest(op="compact"))
                return daemon, before, added, removed, compacted

        daemon, before, added, removed, compacted = asyncio.run(run())
        assert added.added == 30 and removed.removed == 10
        assert compacted.segments == 1 and compacted.tombstones == 0
        assert compacted.live == before + 20
        assert daemon.counts["mutations"] == 3
        assert any("compacted to generation" in e for e in daemon.events)
        mutable.close()

    def test_mutation_invalidates_cache(self):
        mutable, pool = build_mutable()
        rng = np.random.default_rng(2)

        async def run():
            async with ServingDaemon(
                mutable, num_replicas=1, config=quiet_config()
            ) as daemon:
                await daemon.submit(pool[0], k=10)
                warm = await daemon.submit(pool[0], k=10)
                await daemon.mutate(
                    MutationRequest(op="add", vectors=rng.normal(size=(5, 6)))
                )
                cold = await daemon.submit(pool[0], k=10)
                return warm, cold

        warm, cold = asyncio.run(run())
        assert warm.source == "cache"
        assert cold.source != "cache"
        mutable.close()

    def test_queries_stay_correct_across_mutations(self):
        """Interleaved traffic + mutations end bit-identical to a rebuild."""
        mutable, pool = build_mutable()
        rng = np.random.default_rng(3)

        async def run():
            async with ServingDaemon(
                mutable, num_replicas=2, config=quiet_config()
            ) as daemon:
                for _ in range(3):
                    await daemon.mutate(
                        MutationRequest(
                            op="add", vectors=rng.normal(size=(12, 6))
                        )
                    )
                    await daemon.mutate(
                        MutationRequest(op="remove", ids=mutable.live_ids()[:4])
                    )
                    await asyncio.gather(
                        *(daemon.submit(pool[r], k=10) for r in range(4))
                    )
                await daemon.mutate(MutationRequest(op="compact"))
                return await asyncio.gather(
                    *(daemon.submit(pool[r], k=10) for r in range(len(pool)))
                )

        results = asyncio.run(run())
        rebuilt, external = mutable.rebuild()
        want = external[rebuilt.search(pool, k=10)]
        for row, result in enumerate(results):
            assert np.array_equal(result.indices, want[row]), row
        mutable.close()

    def test_immutable_daemon_refuses_mutations(self, served_index):
        index, pool = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                with pytest.raises(RuntimeError, match="immutable"):
                    await daemon.mutate(MutationRequest(op="compact"))

        asyncio.run(run())

    def test_mutable_daemon_rejects_engine_kwargs(self):
        mutable, _ = build_mutable()
        with pytest.raises(ValueError, match="engine configuration"):
            ServingDaemon(
                mutable,
                num_replicas=1,
                config=quiet_config(),
                engine_kwargs={"rerank": False},
            )
        mutable.close()


class TestSearchRequestSubmit:
    def test_request_form_matches_kwarg_form(self, served_index):
        index, pool = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                legacy = await daemon.submit(pool[0], k=10)
                request = await daemon.submit(
                    SearchRequest(queries=pool[0], k=10, deadline_s=5.0)
                )
                return legacy, request

        legacy, request = asyncio.run(run())
        assert np.array_equal(legacy.indices, request.indices)

    def test_request_rejects_bad_combinations(self, served_index):
        index, pool = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                with pytest.raises(TypeError, match="SearchRequest"):
                    await daemon.submit(
                        SearchRequest(queries=pool[0], k=5), k=5
                    )
                with pytest.raises(ValueError, match="one query per submit"):
                    await daemon.submit(SearchRequest(queries=pool[:3], k=5))
                with pytest.raises(ValueError, match="nprobe"):
                    await daemon.submit(
                        SearchRequest(queries=pool[0], k=5, nprobe=4)
                    )
                with pytest.raises(ValueError, match="engine"):
                    await daemon.submit(
                        SearchRequest(queries=pool[0], k=5, engine=object())
                    )

        asyncio.run(run())

    def test_explicit_rerank_hint_bypasses_cache(self, served_index):
        index, pool = served_index

        async def run():
            async with ServingDaemon(
                index, num_replicas=1, config=quiet_config()
            ) as daemon:
                await daemon.submit(pool[0], k=10)
                hinted = await daemon.submit(
                    SearchRequest(queries=pool[0], k=10, rerank=True)
                )
                plain = await daemon.submit(pool[0], k=10)
                return hinted, plain

        hinted, plain = asyncio.run(run())
        assert hinted.source != "cache"  # explicit hint never cache-served
        assert plain.source == "cache"
