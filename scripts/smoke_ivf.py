#!/usr/bin/env python
"""CI smoke test for the IVF-pruned retrieval path.

Builds a clustered quantized index, trains the IVF coarse layer, and
asserts the layer's serving contract end to end:

- probing every cell reproduces the exhaustive engine's ranking exactly
  (pruning is the *only* source of approximation),
- a thin probe (``k`` larger than the ``nprobe`` cells hold) widens in
  centroid order and still returns ``k`` results, equal to the reference
  scan restricted to the widened cell set,
- a tuned ``nprobe`` clears recall@10 >= 0.9 against the exact oracle
  while scanning a fraction of the database,
- the ``QueryEngine(ivf=...)`` integration routes through the layer and
  ``nprobe=0`` bypasses it back to the exhaustive scan,
- a two-replica ``ServingDaemon`` built either way (``ivf=<cells>`` or a
  prebuilt ``IVFIndex``) scans one flat and one IVF layout, the flat one
  being the index's own code store (resident vs accounted B/item printed),
- a quick ``ivf-large``-shaped bench invocation (tiny corpus) produces a
  schema-v4 ``phases.ivf`` subtree with a recall-vs-speedup curve.

Budget: a few seconds. Run from the repository root::

    python scripts/smoke_ivf.py
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.cluster.kmeans import kmeans
from repro.retrieval.adc import RERANK_PAD, adc_distances
from repro.retrieval.engine import QueryEngine
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.ivf import IVFIndex
from repro.retrieval.search import SearchRequest
from repro.serving import ServingDaemon


def build_clustered_index(rng, n_db=2000, num_classes=16, m=4, k_words=16, dim=12):
    means = rng.normal(size=(num_classes, dim)) * 4.0
    labels = rng.integers(num_classes, size=n_db)
    database = means[labels] + rng.normal(size=(n_db, dim)) * 0.5
    residual = database.copy()
    codebooks = np.empty((m, k_words, dim))
    for j in range(m):
        result = kmeans(residual, k_words, rng=j, max_iterations=10)
        codebooks[j] = result.centroids
        residual -= result.centroids[result.assignments]
    index = QuantizedIndex.build(codebooks, database, labels=labels)
    queries = means[rng.integers(num_classes, size=24)] + rng.normal(
        size=(24, dim)
    ) * 0.5
    return index, queries


def check_shared_layouts(index, ivf) -> str:
    """Both daemon construction paths share layouts; resident vs accounted."""
    lines = []
    for how, layer in (("ivf=<cells>", ivf.num_cells), ("prebuilt", ivf)):
        daemon = ServingDaemon(
            index, num_replicas=2, engine_kwargs={"ivf": layer, "nprobe": 8}
        )
        first, second = (r.engine for r in daemon.replica_set.replicas)
        assert second.sharded is first.sharded, "replicas laid the index out twice"
        assert second.ivf is first.ivf, "replicas hold separate IVF layouts"
        assert not first.sharded.fused  # a pair-fused layout is different data
        assert np.shares_memory(first.sharded.codes_t, index.codes), (
            "the flat layout is a copy of the code store"
        )
        # Distinct buffers behind the served arrays, each counted once.
        arrays = [index.codes, index.db_sq_norms]
        for engine in (first, second):
            sharded, layer = engine.sharded, engine.ivf
            arrays += [sharded.codes_t, sharded.norms, sharded.norms64,
                       layer.codes_t, layer.ids, layer.norms32, layer.norms64,
                       layer.centroids]
        owners = {}
        for array in arrays:
            while isinstance(array.base, np.ndarray):
                array = array.base
            owners[id(array)] = array.nbytes
        resident = sum(owners.values()) / len(index)
        accounted = (first.sharded.nbytes + first.ivf.nbytes) / len(index)
        assert resident <= 2 * accounted, f"{resident:.1f} B/item resident"
        lines.append(f"{how}: {resident:.1f} resident / {accounted:.1f} accounted B/item")
    return "; ".join(lines)


def main() -> int:
    rng = np.random.default_rng(0)
    index, queries = build_clustered_index(rng)
    oracle = QueryEngine(index).search(queries, k=10)

    ivf = IVFIndex.build(index, num_cells=32, seed=0)
    assert ivf.cell_sizes().sum() == len(index)

    # Full probe == exhaustive, exactly.
    full = ivf.search(SearchRequest(queries, k=10, nprobe=32)).indices
    assert np.array_equal(full, oracle), "full-probe IVF diverged from oracle"

    # Thin probe: no single cell holds k, so nprobe=1 must widen (doubling,
    # in centroid order, until k + RERANK_PAD candidates are in) and return
    # k results equal to the reference scan over exactly those cells.
    sizes = ivf.cell_sizes()
    k_wide = int(sizes.max()) + 1
    wide = ivf.search(SearchRequest(queries, k=k_wide, nprobe=1)).indices
    assert wide.shape == (len(queries), k_wide)
    centroid_d = (ivf.centroids**2).sum(axis=1) - 2.0 * (queries @ ivf.centroids.T)
    for query, cells, got in zip(queries, np.argsort(centroid_d, axis=1, kind="stable"), wide):
        used = 1
        while sizes[cells[:used]].sum() < k_wide + RERANK_PAD and used < ivf.num_cells:
            used = min(ivf.num_cells, used * 2)
        assert used > 1
        rows = np.sort(np.concatenate([
            ivf.ids[ivf.cell_offsets[c]:ivf.cell_offsets[c + 1]] for c in cells[:used]
        ]))
        d = adc_distances(
            query[None], index.codes[rows], index.codebooks, index.db_sq_norms[rows]
        )[0]
        want = rows[np.argsort(d, kind="stable")[:k_wide]]
        assert np.array_equal(got, want), "widened probe diverged from its oracle"

    # Tuned nprobe: high recall at a fraction of the scan.
    pruned = ivf.search(SearchRequest(queries, k=10, nprobe=8)).indices
    recall = float(np.mean([
        len(set(a) & set(b)) / 10 for a, b in zip(pruned, oracle)
    ]))
    assert recall >= 0.9, f"recall@10 {recall:.3f} below floor at nprobe=8"

    # Engine integration: ivf routing and the nprobe=0 exact bypass.
    with QueryEngine(index, ivf=ivf, nprobe=8) as engine:
        routed = engine.search(queries, k=10)
        assert engine.last_dispatch == "ivf"
        assert np.array_equal(routed, pruned), "engine ivf routing drifted"
        bypass = engine.search(SearchRequest(queries, k=10, nprobe=0)).indices
        assert np.array_equal(bypass, oracle), "nprobe=0 bypass is not exact"

    # Half the rows: under the 4·K² a flat layout needs to pair-fuse.
    half = QuantizedIndex(
        index.codebooks, index.codes[:1000], index.db_sq_norms[:1000].copy()
    )
    layouts = check_shared_layouts(half, IVFIndex.build(half, num_cells=16, seed=0))

    # Tiny ivf-large bench run: schema v4 subtree with a curve.
    from repro.obs.bench import bench_ivf_profile

    entry = bench_ivf_profile(
        quick=True, seed=0, nprobes=(1, 4, 16), ivf_items=4000
    )
    phase = entry["phases"]["ivf"]
    assert len(phase["curve"]) == 3
    assert all(0.0 <= p["recall_at_10"] <= 1.0 for p in phase["curve"])
    assert phase["exhaustive"]["wall_time_s"] > 0
    recalls = [p["recall_at_10"] for p in phase["curve"]]
    assert recalls == sorted(recalls), "recall should not fall as nprobe grows"

    print(
        f"smoke_ivf: ok (recall@10 {recall:.3f} at nprobe=8/32, "
        f"bench curve {['%.2f' % r for r in recalls]})"
    )
    print(f"smoke_ivf: shared layouts ok ({layouts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
