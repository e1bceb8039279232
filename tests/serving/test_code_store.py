"""One code store: what a served index keeps resident, and who shares it.

§IV budgets a served item at ``M·log2(K)/8`` bytes of code plus a norm. The
benchmark's ``index_bytes_per_item`` reports the *as-scanned* bytes
(``ShardedIndex.nbytes`` / ``IVFIndex.nbytes``); this file measures what is
actually *resident* — every distinct ``ndarray`` buffer reachable from a
two-replica daemon, each counted once at its owner, codebooks excluded — and
holds it to a small multiple of the as-scanned figure. The sharing that makes
that true is asserted directly: replicas scan one flat and one IVF layout
however the daemon was configured, and an unfused flat layout *is* the
index's code store.
"""

import asyncio
import gc
import types

import numpy as np
import pytest

from repro.retrieval import (
    IVFIndex,
    MutableIndex,
    QuantizedIndex,
    QueryEngine,
    SearchRequest,
    ShardedIndex,
)
from repro.serving import ServingConfig, ServingDaemon

M, K, DIM, CELLS = 8, 256, 32, 128
OPAQUE = (str, bytes, int, float, bool, type(None), type, types.ModuleType,
          types.FunctionType, types.BuiltinFunctionType)


def resident_arrays(root) -> list[np.ndarray]:
    """The owner of every ``ndarray`` reachable from ``root``, each once.

    Follows instance attributes, slots and the builtin containers (not
    modules, classes or function globals), and a view's ``.base`` chain up
    to the array that owns the bytes.
    """
    owners, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.append(getattr(obj, "__self__", None))  # bound methods
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    stack.append(getattr(obj, slot, None))
    return list(owners.values())


def resident_bytes_per_item(daemon, n: int) -> float:
    arrays = resident_arrays(daemon)
    # The codebooks are shared by design and are not per-item storage.
    per_item = [a for a in arrays if a.shape != (M, K, DIM)]
    assert len(per_item) < len(arrays), "the walk never reached the codebooks"
    wide = [a for a in per_item if a.dtype == np.int64 and a.shape in ((n, M), (M, n))]
    assert not wide, "an int64 code array is reachable from a served index"
    return sum(a.nbytes for a in per_item) / n


def random_index(n: int, seed: int = 0) -> QuantizedIndex:
    """Random codes: resident bytes depend on shape and dtype, not values."""
    rng = np.random.default_rng(seed)
    return QuantizedIndex(
        codebooks=rng.normal(size=(M, K, DIM)),
        codes=rng.integers(0, K, size=(n, M)),
        db_sq_norms=rng.random(n),
    )


def fixed_ivf(index: QuantizedIndex) -> IVFIndex:
    centroids = np.random.default_rng(1).normal(size=(CELLS, DIM))
    return IVFIndex.build(index, centroids=centroids)


def engines(daemon):
    return [replica.engine for replica in daemon.replica_set.replicas]


class TestResidentBytes:
    def test_flat_daemon(self):
        index = random_index(100_000)
        daemon = ServingDaemon(index, num_replicas=2)
        scanned = engines(daemon)[0].sharded.nbytes / len(index)
        resident = resident_bytes_per_item(daemon, len(index))
        assert scanned == 12.0
        assert resident <= 24 and resident <= 2 * scanned

    def test_ivf_daemon_with_a_prebuilt_layout(self):
        index = random_index(30_000)
        ivf = fixed_ivf(index)
        daemon = ServingDaemon(
            index, num_replicas=2, engine_kwargs={"ivf": ivf, "nprobe": 8}
        )
        first = engines(daemon)[0]
        scanned = (first.sharded.nbytes + ivf.nbytes) / len(index)
        resident = resident_bytes_per_item(daemon, len(index))
        assert 33.0 < scanned < 33.2
        assert resident <= 60 and resident <= 2 * scanned

    def test_mutable_index_with_an_ivf_engine(self):
        index = random_index(30_000)
        with MutableIndex.from_index(
            index, engine_kwargs={"ivf": CELLS, "parallel": "never"}
        ) as mutable:
            daemon = ServingDaemon(mutable, num_replicas=2)
            assert resident_bytes_per_item(daemon, len(index)) <= 75
            # The base segment's one code array is also its engine's layout.
            base = mutable._gen.segments[0]
            assert np.shares_memory(base.codes_t, base.engine.sharded.codes_t)


class TestSharedLayouts:
    def test_an_unfused_layout_is_the_index_code_store(self):
        index = random_index(2_000)
        sharded = ShardedIndex(index)
        assert not sharded.fused
        assert np.shares_memory(sharded.codes_t, index.codes)
        assert np.shares_memory(sharded.norms64, index.db_sq_norms)
        again = QuantizedIndex(index.codebooks, index.codes, index.db_sq_norms)
        assert np.shares_memory(again.codes, index.codes)

    def test_a_writable_input_is_copied_not_adopted(self):
        index = random_index(50)
        codes = index.codes.copy(order="F")  # already compact, (M, n)-contiguous
        adopted = QuantizedIndex(index.codebooks, codes, index.db_sq_norms)
        assert not np.shares_memory(adopted.codes, codes)
        codes[0, 0] ^= 1  # the caller keeps writing to theirs
        assert np.array_equal(adopted.codes, index.codes)

    @pytest.mark.parametrize("ivf_as", ["none", "cells", "prebuilt"])
    def test_replicas_share_one_flat_and_one_ivf_layout(self, ivf_as):
        index = random_index(3_000)
        kwargs = {
            "none": None,
            "cells": {"ivf": 16, "nprobe": 4},
            "prebuilt": {"ivf": IVFIndex.build(index, num_cells=16), "nprobe": 4},
        }[ivf_as]
        daemon = ServingDaemon(index, num_replicas=3, engine_kwargs=kwargs)
        first, *others = engines(daemon)
        assert np.shares_memory(first.sharded.codes_t, index.codes)
        for engine in others:
            assert engine.sharded is first.sharded
            assert engine.ivf is first.ivf
        assert (first.ivf is None) == (ivf_as == "none")
        if ivf_as == "prebuilt":
            assert first.ivf is kwargs["ivf"]


class TestBoundLayoutLifetime:
    """A float32 layout binds its arrays' addresses once, when it is built
    (``adc.ScanLayout``), and holds the arrays, so the memory outlives every
    engine that scans it."""

    def test_the_binding_points_into_the_arrays_the_layout_holds(self):
        sharded = ShardedIndex(random_index(2_000))
        layout = sharded.layout
        assert layout.codes_t is sharded.codes_t
        assert layout.norms is sharded.norms and layout.norms64 is sharded.norms64
        codes, _, _, n, norms, norms64, fused = layout.binding
        assert codes == sharded.codes_t.ctypes.data and n == len(sharded)
        assert norms == sharded.norms.ctypes.data
        assert norms64 == sharded.norms64.ctypes.data and fused == sharded.fused

    @pytest.mark.parametrize("ivf_as", ["none", "cells"])
    def test_closing_one_replica_engine_leaves_the_other_answering(self, ivf_as):
        index = random_index(3_000)
        queries = np.random.default_rng(7).normal(size=(5, DIM))
        kwargs = {"none": None, "cells": {"ivf": 16, "nprobe": 4}}[ivf_as]
        daemon = ServingDaemon(
            index, num_replicas=2, engine_kwargs=kwargs,
            config=ServingConfig(heartbeat_interval_s=None),
        )
        first, second = engines(daemon)
        want_ids, want_distances = second.search_with_distances(queries, 10)
        first.close()
        del first
        gc.collect()
        ids, distances = second.search_with_distances(queries, 10)
        assert np.array_equal(ids, want_ids) and np.array_equal(distances, want_distances)

        async def serve():
            async with daemon:
                return [await daemon.submit(SearchRequest(queries=q, k=10)) for q in queries]

        results = asyncio.run(serve())
        assert np.array_equal(np.stack([r.indices for r in results]), want_ids)
        assert np.array_equal(np.stack([r.distances for r in results]), want_distances)
