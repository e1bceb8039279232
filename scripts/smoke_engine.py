#!/usr/bin/env python
"""CI smoke test for the flat query engine, the IVF probe and the daemon.

Builds a random quantized index and checks the engine's rankings against
the serial reference scan — plus the empty / k-edge cases — then does the
same over a pair-fused layout: the fused engine == the serial float64 ADC
(``QuantizedIndex.search_with_distances``) on one batch. It prints which
scan kernel served (``adc.SCAN_KERNEL``) and, where the compiled kernel
loaded, re-runs every path on the NumPy kernel and asserts
the answers are the same bits — and that the one compiled call of
``adc.search_ranges`` equals the NumPy stages it stands for (``scan_tables``
→ ``scan_topk`` → ``rerank_exact`` / ``merge_topk``) on the fused, unfused,
IVF and daemon paths, and that the IVF search call's own coarse probe picks
the cells, counts and answers of the NumPy probe (``ivf.probe_cells``).
Budget: well under 5 seconds.

Run from the repository root::

    python scripts/smoke_engine.py
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

from repro import native
from repro.retrieval import IVFIndex, adc
from repro.retrieval.adc import RERANK_PAD, adc_distances
from repro.retrieval.engine import QueryEngine, ShardedIndex
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.ivf import probe_cells
from repro.retrieval.search import SearchRequest, rank_by_distance
from repro.serving import ServingConfig, ServingDaemon


def composition(lut64, q_sq64, layout, ranges, k, ids=None, rerank=True):
    """``adc.search_ranges`` as the NumPy stages it stands for, one by one."""
    tables, q_sq = adc.scan_tables(lut64, q_sq64, layout.fused)
    values, positions = adc.scan_topk(
        tables, q_sq, layout.codes_t, layout.norms, ranges, k + RERANK_PAD if rerank else k
    )
    found = positions if ids is None else ids[positions]
    if rerank:
        return adc.rerank_exact(
            lut64, q_sq64, layout.codes_t, layout.norms64, positions, found, k
        )
    return adc.merge_topk([values.astype(np.float64)], [found], k)


def check_search_ranges(index, fused_index, queries) -> int:
    """Compiled ``search_ranges`` == the NumPy composition, bit for bit, on
    an unfused and a fused flat layout and an IVF layout's per-query cell
    lists through its id map, rerank on and off. Returns the cases run."""
    rng = np.random.default_rng(1)
    ivf = IVFIndex.build(fused_index, num_cells=12, seed=0)
    cells = np.stack((ivf.cell_offsets[:-1], ivf.cell_offsets[1:]), axis=1)
    probes = np.stack([rng.permutation(len(cells))[:5] for _ in queries])
    cases = [
        ("unfused", ShardedIndex(index, 1), None, None),
        ("fused", ShardedIndex(fused_index, 1), None, None),
        ("IVF", ivf, cells[probes], ivf.ids),
    ]
    for name, surface, ranges, ids in cases:
        assert surface.layout.fused == (name == "fused"), name
        if ranges is None:
            ranges = surface.full_range
        lut64, q_sq64 = adc.query_tables(queries, surface.codebooks64)
        for rerank in (True, False):
            got = adc.search_ranges(lut64, q_sq64, surface.layout, ranges, 10,
                                    ids=ids, rerank=rerank)
            compiled, native.load = native.load, lambda: None
            try:
                want = composition(lut64, q_sq64, surface.layout, ranges, 10, ids, rerank)
            finally:
                native.load = compiled
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                    f"{name} (rerank={rerank}): search_ranges != the NumPy composition"
                )
    return 2 * len(cases)


def check_ivf_probe(fused_index, queries) -> int:
    """The compiled IVF search (probe included) == the NumPy probe followed
    by ``search_ranges``, bit for bit, with equal cells probed and candidate
    counts per query. Returns the cases run."""
    kernel = native.load()
    ivf = IVFIndex.build(fused_index, num_cells=12, seed=0)
    lut64, q_sq64 = adc.query_tables(queries, ivf.codebooks64)
    cross = queries @ ivf.centroids.T
    c_sq = (ivf.centroids**2).sum(axis=1)
    cases = 0
    for nprobe in (1, 3, 12):
        for rerank in (True, False):
            k_scan = 10 + RERANK_PAD if rerank else 10
            *got, probe = kernel.search_cells(
                lut64, q_sq64, ivf.layout, cross, (c_sq, ivf.cell_offsets), nprobe,
                min(k_scan, len(ivf)), ivf.ids, k_scan, 10, rerank,
            )
            ranges, used, candidates = probe_cells(
                cross, c_sq, ivf.cell_offsets, nprobe, min(k_scan, len(ivf))
            )
            compiled, native.load = native.load, lambda: None
            try:
                want = adc.search_ranges(lut64, q_sq64, ivf.layout, ranges, 10,
                                         ids=ivf.ids, rerank=rerank)
            finally:
                native.load = compiled
            assert np.array_equal(probe, np.stack((used, candidates))), (
                f"IVF nprobe={nprobe}: the compiled probe's cells differ"
            )
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                    f"IVF nprobe={nprobe} (rerank={rerank}): compiled probe != NumPy probe"
                )
            cases += 1
    return cases


def daemon_answers(index, queries, engine_kwargs=None):
    """A 2-replica daemon's answers, one request at a time: the first scans
    run on the executor, later ones inline on the event loop."""

    async def serve():
        daemon = ServingDaemon(
            index, num_replicas=2, engine_kwargs=engine_kwargs,
            config=ServingConfig(heartbeat_interval_s=None),
        )
        async with daemon:
            results = [await daemon.submit(SearchRequest(q, k=10)) for q in queries]
        assert daemon.counts["inline_scans"] > 0, dict(daemon.counts)
        return results

    results = asyncio.run(serve())
    return (
        np.stack([r.indices for r in results]),
        np.stack([r.distances for r in results]),
    )


def check_paths(index, fused_index, queries) -> dict:
    """Every path's ids and distances, after checking each against the
    serial reference: unfused and fused, IVF and the daemon."""
    reference = rank_by_distance(
        adc_distances(queries, index.codes, index.codebooks,
                      db_sq_norms=index.db_sq_norms),
        k=10,
    )
    answers = {}

    with QueryEngine(index) as engine:
        ranked = index.search(SearchRequest(queries, k=10, engine=engine)).indices
        assert engine.last_dispatch == "in-process", engine.last_dispatch
        assert np.array_equal(ranked, reference), "rankings diverge from serial"
        answers["unfused"] = engine.search_with_distances(queries, 10)
        answers["unfused no rerank"] = engine.search_with_distances(queries, 10, rerank=False)
        for k in (1, len(index)):
            got = engine.search(queries, k=k)
            want = rank_by_distance(
                adc_distances(queries, index.codes, index.codebooks,
                              db_sq_norms=index.db_sq_norms),
                k=k,
            )
            assert np.array_equal(got, want), f"parity failed at k={k}"
        empty = engine.search(np.empty((0, index.dim)), k=5)
        assert empty.shape == (0, 5), empty.shape

    # Pair-fused layout (even M, 4·K² = 1024 rows): the joint-code scan and
    # the divmod decode in the rerank must land on the serial float64 ADC's
    # ids and distances.
    want = fused_index.search_with_distances(queries, 10)
    with QueryEngine(fused_index) as engine:
        assert engine.sharded.fused
        answers["fused"] = engine.search_with_distances(queries, 10)
        answers["fused no rerank"] = engine.search_with_distances(queries, 10, rerank=False)
    got = answers["fused"]
    assert np.array_equal(got[0], want[0]), "fused ids diverge"
    assert np.array_equal(got[1], want[1]), "fused distances diverge"

    # IVF probes: a full probe is the exhaustive answer.
    ivf = IVFIndex.build(fused_index, num_cells=12, seed=0)
    for nprobe in (1, 3, 12):
        answers[f"ivf nprobe {nprobe}"] = ivf.search_with_distances(queries, 10, nprobe=nprobe)
    full = answers["ivf nprobe 12"]
    assert np.array_equal(full[0], want[0]) and np.array_equal(full[1], want[1]), (
        "a full IVF probe diverges from the exhaustive scan"
    )

    # The daemon, flat (fused) and IVF: what one engine answers, inline or not.
    answers["daemon fused"] = daemon_answers(fused_index, queries[:12])
    for got, expected in zip(answers["daemon fused"], want):
        assert np.array_equal(got, expected[:12]), "daemon answers diverge"
    answers["daemon IVF"] = daemon_answers(
        fused_index, queries[:12], {"ivf": ivf, "nprobe": 3}
    )
    for got, expected in zip(answers["daemon IVF"], answers["ivf nprobe 3"]):
        assert np.array_equal(got, expected[:12]), "daemon IVF answers diverge"
    return answers


def main() -> int:
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    n_db, n_q, m, k_words, dim = 400, 32, 4, 16, 8
    codebooks = rng.normal(size=(m, k_words, dim))
    codes = rng.integers(0, k_words, size=(n_db, m))
    index = QuantizedIndex.build(codebooks, rng.normal(size=(n_db, dim)), codes=codes)
    fused_codes = rng.integers(0, k_words, size=(1200, m))
    fused_index = QuantizedIndex.build(
        codebooks, np.zeros((len(fused_codes), dim)), codes=fused_codes
    )
    queries = rng.normal(size=(n_q, dim))

    kernel = adc.SCAN_KERNEL
    answers = check_paths(index, fused_index, queries)
    if kernel == "c":
        cases = check_search_ranges(index, fused_index, queries)
        probes = check_ivf_probe(fused_index, queries)
        # The same paths on the NumPy kernel.
        compiled, native.load = native.load, lambda: None
        try:
            fallback = check_paths(index, fused_index, queries)
        finally:
            native.load = compiled
        for name, (ids, distances) in answers.items():
            want_ids, want_distances = fallback[name]
            assert ids.tobytes() == want_ids.tobytes(), f"{name}: kernels' ids differ"
            assert distances.tobytes() == want_distances.tobytes(), (
                f"{name}: kernels' distances differ"
            )

    elapsed = time.perf_counter() - start
    compared = (
        f" (compiled == numpy on every path; search_ranges == the NumPy"
        f" composition in {cases} cases; IVF probe == the NumPy probe in"
        f" {probes} cases)" if kernel == "c" else ""
    )
    print(f"scan kernel: {kernel}{compared}")
    print(f"smoke engine OK in {elapsed:.2f}s")
    if elapsed > 5.0:
        print(f"WARNING: smoke engine took {elapsed:.2f}s (budget 5s)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
