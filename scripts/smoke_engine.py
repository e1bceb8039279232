#!/usr/bin/env python
"""CI smoke test for the sharded query engine's multi-worker path.

Builds a random quantized index, forces the multiprocessing pool on
(``parallel="force"`` — the cost-based dispatcher would otherwise keep a
batch this small in-process), and checks the pool-served rankings against
the serial reference scan — plus the in-process fast path and the empty /
k-edge cases — then does the same over a pair-fused layout: fused
in-process == fused pool == the float64 (never fused) scan on one batch.
Budget: well under 5 seconds.

Run from the repository root::

    python scripts/smoke_engine.py
"""

from __future__ import annotations

import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.retrieval.adc import adc_distances
from repro.retrieval.engine import QueryEngine
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.search import SearchRequest, rank_by_distance


def main() -> int:
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    n_db, n_q, m, k_words, dim = 400, 32, 4, 16, 8
    codebooks = rng.normal(size=(m, k_words, dim))
    codes = rng.integers(0, k_words, size=(n_db, m))
    index = QuantizedIndex.build(codebooks, rng.normal(size=(n_db, dim)), codes=codes)
    queries = rng.normal(size=(n_q, dim))
    reference = rank_by_distance(
        adc_distances(queries, index.codes, index.codebooks,
                      db_sq_norms=index.db_sq_norms),
        k=10,
    )

    # The headline path: shards scanned by pool workers over shared memory.
    with QueryEngine(index, workers=2, num_shards=4, parallel="force") as engine:
        ranked = index.search(SearchRequest(queries, k=10, engine=engine)).indices
        assert engine.last_dispatch == "process-pool", engine.last_dispatch
        assert np.array_equal(ranked, reference), "pool rankings diverge from serial"
        # Pool stays warm across batches; edge k values go through it too.
        for k in (1, n_db):
            got = engine.search(queries, k=k)
            want = rank_by_distance(
                adc_distances(queries, index.codes, index.codebooks,
                              db_sq_norms=index.db_sq_norms),
                k=k,
            )
            assert np.array_equal(got, want), f"pool parity failed at k={k}"

    # Dispatcher honesty: a small batch under "auto" stays in-process.
    with QueryEngine(index, workers=2, num_shards=4) as engine:
        ranked = engine.search(queries, k=10)
        assert engine.last_dispatch == "in-process", engine.last_dispatch
        assert np.array_equal(ranked, reference)
        empty = engine.search(np.empty((0, dim)), k=5)
        assert empty.shape == (0, 5), empty.shape

    # Pair-fused layout (even M, 4·K² = 1024 rows): the joint-code scan,
    # its shared-memory attach, and the divmod decode in the rerank must all
    # land on the float64 scan's ids and distances.
    fused_codes = rng.integers(0, k_words, size=(1200, m))
    fused_index = QuantizedIndex.build(
        codebooks, np.zeros((len(fused_codes), dim)), codes=fused_codes
    )
    with QueryEngine(fused_index, parallel="never", dtype=np.float64) as engine:
        assert not engine.sharded.fused
        want = engine.search_with_distances(queries, 10)
    with QueryEngine(fused_index, parallel="never") as engine:
        assert engine.sharded.fused
        in_process = engine.search_with_distances(queries, 10)
    with QueryEngine(fused_index, workers=2, num_shards=4, parallel="force") as engine:
        pooled = engine.search_with_distances(queries, 10)
        assert engine.last_dispatch == "process-pool", engine.last_dispatch
    for name, got in (("in-process", in_process), ("pool", pooled)):
        assert np.array_equal(got[0], want[0]), f"fused {name} ids diverge"
        assert np.array_equal(got[1], want[1]), f"fused {name} distances diverge"

    elapsed = time.perf_counter() - start
    print(f"smoke engine OK in {elapsed:.2f}s")
    if elapsed > 5.0:
        print(f"WARNING: smoke engine took {elapsed:.2f}s (budget 5s)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
