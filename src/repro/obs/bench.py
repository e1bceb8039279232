"""The benchmark harness: seeded per-phase timing with a stable schema.

This is the baseline every performance PR is judged against. One run
times six phases per dataset profile — **train-step** (optimisation
steps through the real session loop), **encode** (DSQ encoding of the
database), **index-build** (the full Fig. 3 indexing pipeline), **query**
(ADC search, measured both one-query-at-a-time for honest latency
percentiles and as one batch for throughput), **serve** (closed-loop
traffic through the resilient serving daemon, recording request-level
p50/p95/p99 latency and sustained QPS), and **stream** (the mutable
index under a streaming long-tail drift scenario: online insert
throughput, recall decay against a periodic full rebuild, compaction
pause percentiles, and the quantization-drift refresh flag) — and writes
``BENCH_results.json`` in the versioned schema documented in
``docs/benchmarks.md``.

The opt-in ``ivf-large`` profile (``--profile ivf-large``) is different in
kind: it builds a memory-mapped long-tail corpus of 1e6+ items, indexes
it, and runs a single **ivf** phase — the recall@10-vs-speedup curve of
the IVF-pruned engine swept across ``--nprobe`` values against the exact
exhaustive oracle (schema v4).

All numbers come from the observability layer itself: each profile runs
under a fresh :func:`repro.obs.observed` context, phase wall times are
read off tracer spans, and latency percentiles off the streaming
histograms the instrumented hot paths feed. Entry points::

    python benchmarks/run_bench.py --profile cifar100-lt --quick
    python -m repro bench --profile cifar100-lt --quick
    python benchmarks/run_bench.py --compare old.json new.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro import obs
from repro.obs import names as metric_names

#: v2 added the ``train`` phase (fused-vs-reference training comparison),
#: no longer written since training has one path — readers ignore it;
#: v3 adds the ``serve`` phase (serving-daemon latency/QPS under closed-loop
#: traffic); v4 adds the ``ivf`` phase (the ``ivf-large`` profile's
#: recall@k-vs-speedup curve for the IVF-pruned engine over a memory-mapped
#: corpus); v5 adds the ``stream`` phase (mutable-index long-tail drift:
#: insert throughput, recall decay vs periodic full rebuild, compaction
#: pauses, quantization-drift flag); v6 adds the ``tune`` phase (the
#: ``repro tune`` config-grid sweep: recall/latency/as-stored-memory per
#: grid point and the fitted cost model with
#: its residuals — see :mod:`repro.tuning`); v7 adds the asymmetric
#: query-encoder block under ``phases.query.encoder`` (light-vs-full
#: encode latency, encode-inclusive end-to-end percentiles, recall@10
#: delta, and the fused-batch-vs-per-query full-encode comparison — see
#: :mod:`repro.encoding`). Older files load fine — the extra phases are
#: simply absent.
BENCH_SCHEMA_VERSION = 7
_READABLE_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6, 7)
DEFAULT_RESULTS_PATH = "BENCH_results.json"
#: Dataset profiles a default (no ``--profile``) run covers.
DEFAULT_PROFILES = ("cifar100-lt", "imagenet100-lt", "nc-lt", "qba-lt")
#: The synthetic micro-profile used by the CI smoke run.
TINY_PROFILE = "tiny"
#: The memory-mapped large-scale IVF profile (opt-in: ``--profile ivf-large``).
IVF_LARGE_PROFILE = "ivf-large"

_PHASES = ("train_step", "encode", "index_build", "query")

#: ``nprobe`` sweep of the ``ivf`` phase when ``--nprobe`` is not given.
DEFAULT_NPROBES = (1, 2, 4, 8, 16, 32)
#: Corpus size of the ``ivf-large`` profile (``--quick`` shrinks it).
IVF_LARGE_ITEMS = 1_000_000
IVF_LARGE_QUICK_ITEMS = 50_000
#: Recall@10 floor the tuned ``best`` operating point must clear.
IVF_RECALL_FLOOR = 0.95

#: Streaming long-tail phase (schema v5): total items streamed into the
#: mutable index (``--stream-items``; ``--quick`` shrinks it) and the
#: number of arrival steps (``--stream-steps``).
STREAM_ITEMS = 6_000
STREAM_QUICK_ITEMS = 2_000
STREAM_STEPS = 12
STREAM_QUICK_STEPS = 6
#: Compact the mutable index every this many arrival steps.
STREAM_COMPACT_EVERY = 4
#: Acceptance: recall@10 may trail a from-scratch rebuild (retrained
#: codebooks) by at most this much at any compaction checkpoint.
STREAM_RECALL_DECAY_LIMIT = 0.02
#: Acceptance: sustained insert throughput floor (vectors/s).
STREAM_INSERT_FLOOR = 10_000.0

#: Acceptance (schema v7 ``phases.query.encoder``): the distilled light
#: query encoder must encode at least this many times faster than the
#: full backbone path…
QUERY_LIGHT_SPEEDUP_FLOOR = 3.0
#: …while giving up at most this much recall@10 against the full path
#: (both scored on the same exact embedding-space oracle).
QUERY_RECALL_DELTA_LIMIT = 0.02
#: Timed repeats of each encode measurement (best-of, like the scans).
_ENCODE_REPEATS = 5


def canonical_dataset(profile: str) -> str:
    """Map a profile name (``cifar100-lt`` or ``cifar100``) to its dataset.

    The ``-lt`` suffix is accepted everywhere the paper's long-tail corpora
    are named; ``tiny`` is the harness's own micro-profile.
    """
    name = profile.strip().lower()
    if name == IVF_LARGE_PROFILE:
        return name
    if name.endswith("-lt"):
        name = name[: -len("-lt")]
    if name == TINY_PROFILE:
        return name
    from repro.data.registry import PROFILES

    if name not in PROFILES:
        known = sorted(PROFILES) + [IVF_LARGE_PROFILE, TINY_PROFILE]
        raise ValueError(f"unknown profile {profile!r}; known: {known}")
    return name


def load_profile_dataset(profile: str, seed: int):
    """The dataset behind a bench profile (shared with ``repro tune``)."""
    dataset_name = canonical_dataset(profile)
    if dataset_name == TINY_PROFILE:
        return build_tiny_dataset(seed)
    from repro.data.registry import load_dataset

    return load_dataset(dataset_name, imbalance_factor=50, scale="ci", seed=seed)


def build_tiny_dataset(seed: int):
    """A six-class micro-corpus so the smoke benchmark finishes in seconds."""
    from repro.data.datasets import RetrievalDataset, Split
    from repro.data.longtail import labels_from_sizes, zipf_class_sizes
    from repro.data.synthetic import make_feature_model

    num_classes, dim = 6, 12
    feature_model = make_feature_model(
        num_classes, dim, separation=3.0, intra_sigma=0.6,
        rng=np.random.default_rng(seed),
    )
    train_labels = labels_from_sizes(
        zipf_class_sizes(num_classes, 40, 10.0), rng=seed + 1
    )
    query_labels = np.tile(np.arange(num_classes), 10)
    db_labels = np.tile(np.arange(num_classes), 30)
    return RetrievalDataset(
        name="tiny",
        num_classes=num_classes,
        target_imbalance_factor=10.0,
        train=Split(feature_model.sample(train_labels, seed + 2), train_labels),
        query=Split(feature_model.sample(query_labels, seed + 3), query_labels),
        database=Split(feature_model.sample(db_labels, seed + 4), db_labels),
        metadata={"modality": "image"},
    )


def _span_duration(tracer: obs.Tracer, name: str) -> float:
    for span in tracer.finished:
        if span.name == name:
            return span.duration_s
    raise KeyError(f"no finished span named {name!r}")


def _latency_summary(histogram: obs.Histogram) -> dict:
    summary = histogram.summary()
    summary.pop("kind", None)
    return summary


def _hist_window(histogram: obs.Histogram) -> tuple[int, float]:
    """Snapshot ``(count, total)`` so a later delta isolates one call."""
    return histogram.count, histogram.total


def _window_mean(histogram: obs.Histogram, window: tuple[int, float]) -> float | None:
    """Mean of the observations made since ``window`` was snapshot."""
    count = histogram.count - window[0]
    if count <= 0:
        return None
    return (histogram.total - window[1]) / count


def _bench_serve(
    index, queries, seed: int, n_requests: int,
    replicas: int = 2, clients: int = 8,
) -> dict:
    """Serve the query set through the resilient daemon (closed loop).

    Requests draw from the profile's real query set under a seeded
    schedule; the returned entry is the :class:`LoadReport` payload
    (request counts, QPS, p50/p95/p99 latency in ms) plus the daemon
    topology and its cache-hit count — with a seeded schedule the hit
    pattern replays, so two runs measure the same request mix.
    """
    import asyncio

    from repro.serving import ServingDaemon, TrafficGenerator

    async def run():
        daemon = ServingDaemon(index, num_replicas=replicas)
        async with daemon:
            generator = TrafficGenerator(daemon, queries, k=10, seed=seed)
            report = await generator.run_closed(n_requests, clients=clients)
        return daemon, report

    daemon, report = asyncio.run(run())
    return {
        "replicas": replicas,
        "clients": clients,
        "cache_hits": int(daemon.counts["cache_hits"]),
        **report.as_dict(),
    }


def _bench_query_encoder(model, dataset, index, quick: bool, seed: int) -> dict:
    """The schema-v7 asymmetric-encoding comparison (``query.encoder``).

    Distills a light query encoder from the profile's trained model, then
    measures both query paths over the same raw query features: batched
    encode wall time (plus, on the full path, the per-query encode loop
    the fused batch path must beat), encode-inclusive end-to-end latency
    percentiles, and each path's retrieval recall@10 against the exact
    embedding-space oracle. The nightly bench gates ``encode_speedup``
    and ``recall_delta`` against :data:`QUERY_LIGHT_SPEEDUP_FLOOR` /
    :data:`QUERY_RECALL_DELTA_LIMIT`.
    """
    import math

    from repro.encoding import distill_query_encoder
    from repro.retrieval.search import squared_distances

    light, _ = distill_query_encoder(model, dataset, seed=seed)
    raw_queries = np.asarray(dataset.query.features, dtype=np.float64)
    n_single = min(32 if quick else 100, len(raw_queries))
    emb_db = np.asarray(model.embed(dataset.database.features), dtype=np.float64)
    full_emb = np.asarray(model.embed(raw_queries), dtype=np.float64)
    exact_ids = np.argsort(
        squared_distances(full_emb, emb_db), kind="stable", axis=1
    )[:, :10]

    def best_of(call) -> float:
        best = math.inf
        for _ in range(_ENCODE_REPEATS):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        return best

    def measure(embed) -> dict:
        batch_s = best_of(lambda: embed(raw_queries))
        samples = []
        for row in raw_queries[:n_single]:
            start = time.perf_counter()
            index.search(embed(row[None, :]), k=10)
            samples.append(time.perf_counter() - start)
        recall = overlap_recall(index.search(embed(raw_queries), k=10), exact_ids)
        return {
            "queries": len(raw_queries),
            "batch_encode_s": batch_s,
            "encode_per_query_s": batch_s / len(raw_queries),
            "end_to_end_queries": n_single,
            "end_to_end_p50_ms": float(np.percentile(samples, 50) * 1e3),
            "end_to_end_p95_ms": float(np.percentile(samples, 95) * 1e3),
            "recall_at_10": recall,
        }

    full = measure(model.embed)
    # The fused-batch claim: one batched full encode must beat encoding
    # the same rows one query at a time.
    per_query_total = best_of(
        lambda: [model.embed(row[None, :]) for row in raw_queries[:n_single]]
    )
    full["per_query_encode_s"] = per_query_total / n_single
    light_entry = measure(light.embed)
    encode_speedup = (
        full["batch_encode_s"] / light_entry["batch_encode_s"]
        if light_entry["batch_encode_s"] > 0 else None
    )
    fused_batch_speedup = (
        full["per_query_encode_s"] / full["encode_per_query_s"]
        if full["encode_per_query_s"] > 0 else None
    )
    recall_delta = full["recall_at_10"] - light_entry["recall_at_10"]
    return {
        "full": full,
        "light": light_entry,
        "encode_speedup": encode_speedup,
        "fused_batch_speedup": fused_batch_speedup,
        "recall_delta": recall_delta,
        "speedup_floor": QUERY_LIGHT_SPEEDUP_FLOOR,
        "recall_delta_limit": QUERY_RECALL_DELTA_LIMIT,
        "within_limits": bool(
            encode_speedup is not None
            and encode_speedup >= QUERY_LIGHT_SPEEDUP_FLOOR
            and recall_delta <= QUERY_RECALL_DELTA_LIMIT
        ),
    }


def train_residual_codebooks(features, num_codebooks, num_codewords, rng):
    """Residual k-means codebooks — the serving-side (re)training step
    shared by the stream phase and the ``repro tune`` sweep."""
    from repro.cluster.kmeans import kmeans

    residual = np.asarray(features, dtype=np.float64).copy()
    dim = residual.shape[1]
    codebooks = np.empty((num_codebooks, num_codewords, dim))
    for j in range(num_codebooks):
        result = kmeans(residual, num_codewords, rng=rng, max_iterations=10)
        codebooks[j] = result.centroids
        residual -= result.centroids[result.assignments]
    return codebooks


def overlap_recall(approx_ids, exact_ids) -> float:
    """Mean top-k overlap fraction (the IVF phase's recall definition)."""
    return float(np.mean([
        len(set(approx) & set(exact)) / len(exact)
        for approx, exact in zip(approx_ids, exact_ids)
    ]))


def _bench_stream(
    num_classes: int,
    dim: int,
    quick: bool,
    seed: int,
    handle,
    stream_items: int | None = None,
    stream_steps: int | None = None,
) -> dict:
    """The streaming long-tail drift scenario over the mutable index.

    A Zipf corpus arrives over ``stream_steps`` batches
    (:func:`repro.data.longtail.stream_arrivals`): the head is present from
    the first batch — which also trains the codebooks — while tail classes
    arrive late and grow. Each later batch is inserted online
    (``MutableIndex.add``), a small seeded churn removes old rows, and the
    index compacts every :data:`STREAM_COMPACT_EVERY` steps. At each
    compaction checkpoint recall@10 (against the exact float oracle over
    the live corpus) is measured three ways:

    - the mutable index as it stands (segments + tombstones);
    - a **periodic full rebuild** with the production codebooks — the ops
      strategy the mutable index replaces. Its recall minus the mutable
      recall is the *decay* the acceptance limit bounds (the parity
      contract predicts exactly zero: same codes, same ranking);
    - a rebuild with codebooks **retrained** on the live corpus — its gain
      over the mutable recall is the *refresh headroom* a DSQ fine-tune
      would recover, the quantity the drift gauge exists to flag. It is
      reported, not thresholded: it measures codebook staleness, not the
      mutable layer.

    The final checkpoint also asserts bit parity between the mutable
    search and its own rebuild through the public search path.
    """
    from repro.data.longtail import stream_arrivals, zipf_class_sizes
    from repro.data.synthetic import make_feature_model
    from repro.retrieval import MutableIndex, QuantizedIndex
    from repro.retrieval.search import squared_distances, topk_tie_stable

    n_items = stream_items if stream_items is not None else (
        STREAM_QUICK_ITEMS if quick else STREAM_ITEMS
    )
    n_steps = stream_steps if stream_steps is not None else (
        STREAM_QUICK_STEPS if quick else STREAM_STEPS
    )
    if n_steps < 2:
        raise ValueError("the stream phase needs at least 2 steps")
    num_codebooks, num_codewords = (4, 32) if quick else (4, 64)
    k = 10
    rng = np.random.default_rng(seed + 17)
    model = make_feature_model(
        num_classes, dim, separation=4.0, intra_sigma=0.8, rng=rng
    )
    # Calibrate the Zipf head size so the schedule totals ~n_items.
    reference = zipf_class_sizes(num_classes, 1_000, 50.0)
    head = max(int(round(1_000 * n_items / reference.sum())), 2)
    sizes = zipf_class_sizes(num_classes, head, 50.0)
    schedule = stream_arrivals(sizes, n_steps, rng=seed + 18, stagger=0.75)

    query_labels = np.tile(np.arange(num_classes), 1 if quick else 2)
    queries = model.sample(query_labels, rng)

    # Row id == position in this growing store (ids are auto-assigned and
    # never reused here), so the float oracle can gather live rows by id.
    store = np.empty((int(sizes.sum()), dim))
    initial = model.sample(schedule[0].labels, rng)
    store[: len(initial)] = initial
    with handle.span("bench.stream.train", items=len(initial)):
        codebooks = train_residual_codebooks(
            initial, num_codebooks, num_codewords,
            np.random.default_rng(seed + 19),
        )
        index = MutableIndex.from_index(
            QuantizedIndex.build(codebooks, initial, labels=schedule[0].labels)
        )

    def checkpoint(step: int) -> dict:
        live_ids = index.live_ids()
        live = store[live_ids]
        exact = live_ids[
            topk_tie_stable(squared_distances(queries, live), k)[0]
        ]
        mutable_recall = overlap_recall(index.search(queries, k=k), exact)
        rebuild_rows = QuantizedIndex.build(codebooks, live).search(
            queries, k=k
        )
        rebuild_recall = overlap_recall(live_ids[rebuild_rows], exact)
        retrained = train_residual_codebooks(
            live, num_codebooks, num_codewords,
            np.random.default_rng(seed + 20 + step),
        )
        retrained_rows = QuantizedIndex.build(retrained, live).search(
            queries, k=k
        )
        retrained_recall = overlap_recall(live_ids[retrained_rows], exact)
        return {
            "step": step,
            "live": int(len(live_ids)),
            "recall_mutable": mutable_recall,
            "recall_rebuild": rebuild_recall,
            "recall_retrained": retrained_recall,
            "decay": rebuild_recall - mutable_recall,
            "refresh_headroom": retrained_recall - mutable_recall,
        }

    inserted = removed = 0
    insert_wall = 0.0
    compact_pauses: list[float] = []
    checkpoints: list[dict] = []
    churn_rng = np.random.default_rng(seed + 21)
    for stream_step in schedule[1:]:
        labels = stream_step.labels
        if len(labels):
            vectors = model.sample(labels, rng)
            result = index.add(vectors, labels=labels)
            store[
                index.id_bound - result.added : index.id_bound
            ] = vectors
            inserted += result.added
            insert_wall += result.elapsed_s
        live_ids = index.live_ids()
        n_churn = int(0.02 * len(live_ids))
        if n_churn:
            victims = churn_rng.choice(live_ids, size=n_churn, replace=False)
            removed += index.remove(victims).removed
        if stream_step.step % STREAM_COMPACT_EVERY == 0 or (
            stream_step is schedule[-1]
        ):
            with handle.span("bench.stream.checkpoint", step=stream_step.step):
                checkpoints.append(checkpoint(stream_step.step))
            compact_pauses.append(index.compact().elapsed_s)

    # Bit parity against the index's own from-scratch rebuild (same
    # codebooks): the tentpole's exactness contract, asserted on the final
    # state through the public search path.
    rebuilt, external = index.rebuild()
    parity = bool(
        np.array_equal(index.search(queries, k=k), external[rebuilt.search(queries, k=k)])
    )
    pauses = np.asarray(compact_pauses)
    max_decay = max(point["decay"] for point in checkpoints)
    insert_rate = inserted / insert_wall if insert_wall > 0 else None
    entry = {
        "items": int(n_items),
        "steps": int(n_steps),
        "initial_items": int(len(initial)),
        "inserted": int(inserted),
        "removed": int(removed),
        "live_final": int(len(index)),
        "insert": {
            "wall_time_s": insert_wall,
            "items_per_s": insert_rate,
            "floor_items_per_s": STREAM_INSERT_FLOOR,
            "meets_floor": bool(
                insert_rate is not None and insert_rate >= STREAM_INSERT_FLOOR
            ),
        },
        "compactions": {
            "count": len(compact_pauses),
            "every_steps": STREAM_COMPACT_EVERY,
            "pause_s": {
                "p50": float(np.percentile(pauses, 50)),
                "p95": float(np.percentile(pauses, 95)),
                "p99": float(np.percentile(pauses, 99)),
                "max": float(pauses.max()),
            },
        },
        "recall": {
            "k": k,
            "checkpoints": checkpoints,
            "max_decay": float(max_decay),
            "decay_limit": STREAM_RECALL_DECAY_LIMIT,
            "within_limit": bool(max_decay <= STREAM_RECALL_DECAY_LIMIT),
            "max_refresh_headroom": float(
                max(point["refresh_headroom"] for point in checkpoints)
            ),
        },
        "drift": {
            "ratio": float(index.drift_ratio),
            "threshold": index.drift_threshold,
            "refresh_flagged": bool(index.refresh_recommended),
        },
        "parity_with_rebuild": parity,
    }
    index.close()
    return entry


def _build_ivf_corpus(n_items: int, quick: bool, seed: int, tmpdir: str):
    """Memory-mapped long-tail corpus + a trained quantized index over it.

    Codebooks come from residual k-means on a corpus sample (the indexing
    question the IVF phase answers is a *serving* one — the trained-DSQ
    path is timed by the regular profiles); encoding and norm computation
    then stream the memmap in chunks, so peak memory stays one chunk of
    float64 regardless of corpus size.
    """
    from repro.cluster.kmeans import kmeans
    from repro.data.longtail import zipf_class_sizes
    from repro.data.synthetic import make_feature_model, sample_to_memmap
    from repro.retrieval import QuantizedIndex, encode_nearest, reconstruct

    num_classes, dim = 200, 32
    num_codebooks, num_codewords = (4, 64) if quick else (8, 256)
    rng = np.random.default_rng(seed)
    model = make_feature_model(
        num_classes, dim, separation=4.5, intra_sigma=0.8, rng=rng,
        nuisance_dim=4, nuisance_sigma=0.5,
    )
    # Zipf shape from the long-tail substrate, renormalised to draw exactly
    # n_items labels.
    sizes = zipf_class_sizes(num_classes, 10_000, 50.0)
    probabilities = sizes / sizes.sum()
    db_labels = rng.choice(num_classes, size=n_items, p=probabilities)
    features = sample_to_memmap(
        model, db_labels, os.path.join(tmpdir, "corpus.f32"), rng
    )

    train_rows = rng.choice(n_items, size=min(65_536, n_items), replace=False)
    train_rows.sort()
    sample = np.asarray(features[train_rows], dtype=np.float64)
    residual = sample.copy()
    codebooks = np.empty((num_codebooks, num_codewords, dim))
    for j in range(num_codebooks):
        result = kmeans(residual, num_codewords, rng=rng, max_iterations=15)
        codebooks[j] = result.centroids
        residual -= result.centroids[result.assignments]

    chunk = 65_536
    codes = np.empty((n_items, num_codebooks), dtype=np.int64)
    norms = np.empty(n_items)
    for lo in range(0, n_items, chunk):
        hi = min(lo + chunk, n_items)
        block = np.asarray(features[lo:hi], dtype=np.float64)
        codes[lo:hi] = encode_nearest(block, codebooks, residual=True)
        norms[lo:hi] = (reconstruct(codes[lo:hi], codebooks) ** 2).sum(axis=1)
    index = QuantizedIndex(
        codebooks=codebooks, codes=codes, db_sq_norms=norms, labels=db_labels
    )

    n_query = 32 if quick else 64
    query_labels = rng.integers(num_classes, size=n_query)
    queries = model.sample(query_labels, rng)
    return index, queries, features.nbytes


def bench_ivf_profile(
    quick: bool = False,
    seed: int = 0,
    nprobes: tuple[int, ...] | None = None,
    ivf_items: int | None = None,
    ivf_cells: int | None = None,
) -> dict:
    """The ``ivf-large`` profile: recall@10-vs-speedup over a memmap corpus.

    Builds a memory-mapped long-tail corpus (1e6 items by default,
    ``--quick`` shrinks it), indexes it, then measures the exhaustive
    :class:`~repro.retrieval.engine.QueryEngine` as the recall oracle and
    sweeps the IVF layer across ``nprobes``. Each sweep point records wall
    time, QPS, recall@10 against the exact oracle, and speedup over the
    exhaustive scan; ``best`` is the fastest point whose recall clears
    :data:`IVF_RECALL_FLOOR`. The result subtree carries a single ``ivf``
    phase (schema v4).
    """
    import shutil
    import tempfile

    from repro.retrieval import IVFIndex, SearchRequest, default_num_cells
    from repro.retrieval.engine import QueryEngine

    nprobes = tuple(sorted(set(nprobes or DEFAULT_NPROBES)))
    n_items = ivf_items if ivf_items is not None else (
        IVF_LARGE_QUICK_ITEMS if quick else IVF_LARGE_ITEMS
    )
    tmpdir = tempfile.mkdtemp(prefix="repro-ivf-bench-")
    try:
        with obs.observed() as handle:
            tracer = handle.tracer
            registry = handle.registry
            with handle.span("bench.profile", profile=IVF_LARGE_PROFILE):
                with handle.span("bench.ivf.corpus", items=n_items):
                    index, queries, corpus_bytes = _build_ivf_corpus(
                        n_items, quick, seed, tmpdir
                    )
                num_cells = (
                    ivf_cells if ivf_cells is not None
                    else default_num_cells(len(index))
                )
                with handle.span("bench.ivf.build", cells=num_cells):
                    ivf = IVFIndex.build(index, num_cells=num_cells, seed=seed)
                with QueryEngine(index) as engine:
                    engine.search(queries[:1], k=10)  # warm the scan path
                    with handle.span("bench.ivf.exhaustive"):
                        start = time.perf_counter()
                        exact_topk = engine.search(queries, k=10)
                        exhaustive_wall = time.perf_counter() - start
                curve = []
                cells_hist = registry.histogram(metric_names.IVF_CELLS_PROBED)
                cand_hist = registry.histogram(
                    metric_names.IVF_CANDIDATES_SCANNED
                )
                ivf.search(queries[:1], k=10)  # warm (and build the LUT path)
                for nprobe in nprobes:
                    cells_window = _hist_window(cells_hist)
                    cand_window = _hist_window(cand_hist)
                    with handle.span("bench.ivf.sweep", nprobe=nprobe):
                        request = SearchRequest(
                            queries=queries, k=10, nprobe=nprobe
                        )
                        start = time.perf_counter()
                        topk = ivf.search(request).indices
                        wall = time.perf_counter() - start
                    overlap = [
                        len(set(approx) & set(exact)) / len(exact)
                        for approx, exact in zip(topk, exact_topk)
                    ]
                    curve.append({
                        "nprobe": int(min(nprobe, ivf.num_cells)),
                        "wall_time_s": wall,
                        "qps": len(queries) / wall if wall > 0 else None,
                        "recall_at_10": float(np.mean(overlap)),
                        "speedup": (
                            exhaustive_wall / wall if wall > 0 else None
                        ),
                        "mean_cells_probed": _window_mean(
                            cells_hist, cells_window
                        ),
                        "mean_candidates": _window_mean(cand_hist, cand_window),
                    })
            eligible = [
                point for point in curve
                if point["recall_at_10"] >= IVF_RECALL_FLOOR
                and point["speedup"] is not None
            ]
            best = max(eligible, key=lambda p: p["speedup"]) if eligible else None
            cell_sizes = ivf.cell_sizes()
            build_entry = {
                "wall_time_s": _span_duration(tracer, "bench.ivf.build"),
                "num_cells": ivf.num_cells,
                "nbytes": int(ivf.nbytes),
                "empty_cells": int((cell_sizes == 0).sum()),
                "cell_size_min": int(cell_sizes.min()),
                "cell_size_mean": float(cell_sizes.mean()),
                "cell_size_max": int(cell_sizes.max()),
            }
            return {
                "profile": IVF_LARGE_PROFILE,
                "dataset": {
                    "name": IVF_LARGE_PROFILE,
                    "num_classes": 200,
                    "dim": index.dim,
                    "n_train": 0,
                    "n_db": len(index),
                    "n_query": len(queries),
                    "memmap_bytes": int(corpus_bytes),
                },
                "phases": {
                    "ivf": {
                        "wall_time_s": _span_duration(tracer, "bench.profile"),
                        "corpus_wall_time_s": _span_duration(
                            tracer, "bench.ivf.corpus"
                        ),
                        "build": build_entry,
                        "exhaustive": {
                            "wall_time_s": exhaustive_wall,
                            "qps": (
                                len(queries) / exhaustive_wall
                                if exhaustive_wall > 0 else None
                            ),
                        },
                        "recall_floor": IVF_RECALL_FLOOR,
                        "curve": curve,
                        "best": best,
                    },
                },
                "metrics": registry.snapshot(),
                "spans": tracer.records(),
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def bench_profile(
    profile: str,
    quick: bool = False,
    seed: int = 0,
    stream_items: int | None = None,
    stream_steps: int | None = None,
) -> dict:
    """Run every phase for one profile; returns its result subtree.

    The ``ivf-large`` profile is special-cased to
    :func:`bench_ivf_profile` (its corpus is memory-mapped and it runs a
    single ``ivf`` phase instead of the six regular ones).
    """
    if canonical_dataset(profile) == IVF_LARGE_PROFILE:
        return bench_ivf_profile(quick=quick, seed=seed)

    from repro.core.trainer import Trainer
    from repro.experiments.config import (
        default_loss_config,
        default_model_config,
        default_training_config,
    )

    dataset = load_profile_dataset(profile, seed)
    epochs = 1 if quick else 3
    model_config = default_model_config(dataset)
    loss_config = default_loss_config(dataset)
    training_config = default_training_config(dataset, fast=True)
    trainer = Trainer(model_config, loss_config, training_config, seed=seed)
    with obs.observed() as handle:
        tracer = handle.tracer
        registry = handle.registry
        steps_counter = registry.counter(metric_names.TRAIN_STEPS_TOTAL)
        with handle.span("bench.profile", profile=profile):
            with handle.span("bench.setup"):
                session = trainer.start_session(dataset, epochs=epochs)
            with handle.span("bench.train_step"):
                while not session.finished:
                    session.run_epoch()
            steps = int(steps_counter.value)
            step_time = _latency_summary(
                registry.histogram(metric_names.TRAIN_STEP_TIME)
            )
            model = session.model
            model.eval()
            database = dataset.database.features
            with handle.span("bench.encode"):
                model.encode(database)
            with handle.span("bench.index_build"):
                index = model.build_index(database, labels=dataset.database.labels)
            queries = model.embed(dataset.query.features)
            n_single = min(100 if quick else len(queries), len(queries))
            with handle.span("bench.query", single=n_single, batch=len(queries)):
                # Served one at a time: each call's wall time is one query's
                # true latency, so the histogram percentiles are exact.
                with handle.span("bench.query.single"):
                    for row in queries[:n_single]:
                        index.search(row[None, :], k=10)
                # Snapshot latency percentiles before the batch call below
                # adds its (amortised, much lower) per-query observations.
                single_latency = _latency_summary(
                    handle.registry.histogram(metric_names.QUERY_LATENCY)
                )
                with handle.span("bench.query.batch"):
                    index.search(queries, k=10)
            with handle.span("bench.query.encoder"):
                encoder_entry = _bench_query_encoder(
                    model, dataset, index, quick, seed
                )
            n_serve = 64 if quick else 256
            with handle.span("bench.serve", requests=n_serve):
                serve_entry = _bench_serve(
                    index, queries, seed=seed, n_requests=n_serve
                )
            with handle.span("bench.stream"):
                stream_entry = _bench_stream(
                    dataset.num_classes, dataset.dim, quick, seed, handle,
                    stream_items=stream_items, stream_steps=stream_steps,
                )
        stream_wall = _span_duration(tracer, "bench.stream")
        serve_wall = _span_duration(tracer, "bench.serve")
        train_wall = _span_duration(tracer, "bench.train_step")
        encode_wall = _span_duration(tracer, "bench.encode")
        build_wall = _span_duration(tracer, "bench.index_build")
        single_wall = _span_duration(tracer, "bench.query.single")
        batch_wall = _span_duration(tracer, "bench.query.batch")
        encoder_wall = _span_duration(tracer, "bench.query.encoder")

        return {
            "profile": profile,
            "dataset": {
                "name": dataset.name,
                "num_classes": dataset.num_classes,
                "dim": dataset.dim,
                "n_train": len(dataset.train),
                "n_db": len(dataset.database),
                "n_query": len(dataset.query),
            },
            "phases": {
                "train_step": {
                    "wall_time_s": train_wall,
                    "epochs": epochs,
                    "steps": steps,
                    "steps_per_s": steps / train_wall if train_wall > 0 else None,
                    "step_time_s": step_time,
                },
                "encode": {
                    "wall_time_s": encode_wall,
                    "items": len(database),
                    "items_per_s": (
                        len(database) / encode_wall if encode_wall > 0 else None
                    ),
                },
                "index_build": {
                    "wall_time_s": build_wall,
                    "items": len(database),
                    "items_per_s": (
                        len(database) / build_wall if build_wall > 0 else None
                    ),
                },
                "query": {
                    "wall_time_s": single_wall + batch_wall,
                    "single": {
                        "queries": n_single,
                        "wall_time_s": single_wall,
                        "latency_s": single_latency,
                    },
                    "batch": {
                        "queries": len(queries),
                        "wall_time_s": batch_wall,
                        "qps": (
                            len(queries) / batch_wall if batch_wall > 0 else None
                        ),
                    },
                    "encoder": {
                        "wall_time_s": encoder_wall,
                        **encoder_entry,
                    },
                },
                "serve": {
                    "wall_time_s": serve_wall,
                    **serve_entry,
                },
                "stream": {
                    "wall_time_s": stream_wall,
                    **stream_entry,
                },
            },
            "metrics": registry.snapshot(),
            "spans": tracer.records(),
        }


def run_bench(
    profiles: list[str] | tuple[str, ...] = DEFAULT_PROFILES,
    quick: bool = False,
    seed: int = 0,
    nprobes: tuple[int, ...] | None = None,
    ivf_items: int | None = None,
    ivf_cells: int | None = None,
    stream_items: int | None = None,
    stream_steps: int | None = None,
) -> dict:
    """Run the harness over ``profiles``; returns the full result tree.

    The ``ivf_*``/``nprobes`` knobs shape the ``ivf-large`` profile only,
    and the ``stream_*`` knobs the regular profiles' ``stream`` phase;
    each is ignored by the other kind of profile.
    """
    results = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "seed": seed,
        "quick": quick,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "profiles": {},
    }
    for profile in profiles:
        if canonical_dataset(profile) == IVF_LARGE_PROFILE:
            results["profiles"][profile] = bench_ivf_profile(
                quick=quick, seed=seed, nprobes=nprobes,
                ivf_items=ivf_items, ivf_cells=ivf_cells,
            )
        else:
            results["profiles"][profile] = bench_profile(
                profile, quick=quick, seed=seed, stream_items=stream_items,
                stream_steps=stream_steps,
            )
    return results


def write_results(results: dict, path: str = DEFAULT_RESULTS_PATH) -> str:
    """Write the result tree as pretty JSON; returns the absolute path."""
    path = os.path.abspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_results(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        results = json.load(handle)
    version = results.get("schema_version")
    if version not in _READABLE_SCHEMA_VERSIONS:
        raise ValueError(
            f"{path}: unsupported bench schema {version!r} "
            f"(readable: {_READABLE_SCHEMA_VERSIONS})"
        )
    return results


def format_summary(results: dict) -> str:
    """A human-readable per-profile phase table."""
    lines = [
        f"bench seed={results['seed']} quick={results['quick']} "
        f"(schema v{results['schema_version']})",
        f"{'profile':<16} {'phase':<12} {'wall_s':>9} {'throughput':>18} "
        f"{'p50':>9} {'p95':>9} {'p99':>9}",
    ]
    for profile, entry in results["profiles"].items():
        phases = entry["phases"]
        rows = []
        if "train_step" in phases:
            rows.append(
                ("train_step", phases["train_step"]["wall_time_s"],
                 phases["train_step"]["steps_per_s"], "steps/s",
                 phases["train_step"]["step_time_s"]))
        if "encode" in phases:
            rows.append(
                ("encode", phases["encode"]["wall_time_s"],
                 phases["encode"]["items_per_s"], "items/s", None))
        if "index_build" in phases:
            rows.append(
                ("index_build", phases["index_build"]["wall_time_s"],
                 phases["index_build"]["items_per_s"], "items/s", None))
        if "query" in phases:
            rows.append(
                ("query", phases["query"]["wall_time_s"],
                 phases["query"]["batch"]["qps"], "qps",
                 phases["query"]["single"]["latency_s"]))
        for phase, wall, rate, unit, dist in rows:
            rate_text = f"{rate:,.0f} {unit}" if rate else "-"
            if dist and dist.get("count"):
                p50, p95, p99 = (f"{dist[k]:.2e}" for k in ("p50", "p95", "p99"))
            else:
                p50 = p95 = p99 = "-"
            lines.append(
                f"{profile:<16} {phase:<12} {wall:>9.3f} {rate_text:>18} "
                f"{p50:>9} {p95:>9} {p99:>9}"
            )
        encoder = phases.get("query", {}).get("encoder")
        if encoder:
            speedup = encoder.get("encode_speedup")
            speedup_text = f"x{speedup:.2f}" if speedup else "-"
            fused = encoder.get("fused_batch_speedup")
            fused_text = f"x{fused:.2f}" if fused else "-"
            gate = "ok" if encoder.get("within_limits") else "OVER LIMIT"
            lines.append(
                f"{profile:<16} {'query.encoder':<12} "
                f"{encoder.get('wall_time_s', 0.0):>9.3f} "
                f"{'light ' + speedup_text:>18} "
                f"delta {encoder.get('recall_delta', 0.0):+.3f} ({gate}), "
                f"fused batch {fused_text} vs per-query"
            )
        serve = phases.get("serve")
        if serve:
            qps = serve.get("qps")
            rate_text = f"{qps:,.0f} qps" if qps else "-"
            p50, p95, p99 = (
                f"{serve[f'latency_p{q}_ms'] / 1e3:.2e}"
                for q in ("50", "95", "99")
            )
            lines.append(
                f"{profile:<16} {'serve':<12} "
                f"{serve['wall_time_s']:>9.3f} {rate_text:>18} "
                f"{p50:>9} {p95:>9} {p99:>9} "
                f"({serve['replicas']}r/{serve['clients']}c, "
                f"ok {serve['ok']}/{serve['requests']})"
            )
        stream = phases.get("stream")
        if stream:
            rate = stream["insert"].get("items_per_s")
            rate_text = f"{rate:,.0f} items/s" if rate else "-"
            recall = stream["recall"]
            pause = stream["compactions"]["pause_s"]
            decay_flag = "ok" if recall["within_limit"] else "OVER LIMIT"
            parity = "ok" if stream.get("parity_with_rebuild") else "MISMATCH"
            lines.append(
                f"{profile:<16} {'stream':<12} "
                f"{stream['wall_time_s']:>9.3f} {rate_text:>18} "
                f"decay {recall['max_decay']:+.3f} ({decay_flag}), "
                f"compact p95 {pause['p95'] * 1e3:.1f}ms, parity {parity}"
            )
        tune = phases.get("tune")
        if tune:
            model = tune.get("model", {})
            holdout = model.get("holdout") or {}
            fit_text = (
                f"fit err mean {model.get('mean_rel_error', 0.0) * 100:.1f}% "
                f"/ max {model.get('max_rel_error', 0.0) * 100:.1f}%"
            )
            if holdout.get("n"):
                fit_text += (
                    f" (holdout mean "
                    f"{holdout.get('mean_rel_error', 0.0) * 100:.1f}%, "
                    f"n={holdout['n']})"
                )
            lines.append(
                f"{profile:<16} {'tune':<12} "
                f"{tune.get('wall_time_s', 0.0):>9.3f} "
                f"{str(tune.get('grid_points', len(tune.get('points', ())))) + ' pts':>18} "
                f"{fit_text}"
            )
        ivf = phases.get("ivf")
        if ivf:
            build = ivf["build"]
            exhaustive = ivf["exhaustive"]
            exh_qps = exhaustive.get("qps")
            rate_text = f"{exh_qps:,.0f} qps" if exh_qps else "-"
            # Present only in artifacts written while a uint8-LUT scan existed.
            lut = build.get("lut_dtype")
            lut_text = f"{lut} LUT, " if lut else ""
            lines.append(
                f"{profile:<16} {'ivf.exhaustive':<12} "
                f"{exhaustive['wall_time_s']:>8.3f} {rate_text:>18} "
                f"(oracle; {build['num_cells']} cells, {lut_text}"
                f"build {build['wall_time_s']:.1f}s)"
            )
            for point in ivf["curve"]:
                qps = point.get("qps")
                rate_text = f"{qps:,.0f} qps" if qps else "-"
                speedup = point.get("speedup")
                speedup_text = f"x{speedup:.1f}" if speedup else "-"
                lines.append(
                    f"{profile:<16} {'ivf.nprobe=' + str(point['nprobe']):<12} "
                    f"{point['wall_time_s']:>9.3f} {rate_text:>18} "
                    f"recall@10 {point['recall_at_10']:.3f} {speedup_text}"
                )
            best = ivf.get("best")
            if best:
                lines.append(
                    f"{profile:<16} {'ivf.best':<12} nprobe={best['nprobe']} "
                    f"x{best['speedup']:.1f} at recall@10 "
                    f"{best['recall_at_10']:.3f} "
                    f"(floor {ivf['recall_floor']:.2f})"
                )
            else:
                lines.append(
                    f"{profile:<16} {'ivf.best':<12} no sweep point reached "
                    f"recall@10 >= {ivf['recall_floor']:.2f}"
                )
    return "\n".join(lines)


def compare_results(old: dict, new: dict) -> str:
    """Per-phase wall-time deltas between two runs (negative = faster).

    The two files may come from different schema versions (an old baseline
    vs a fresh run is the normal case). Phases present on only one side are
    skipped with a trailing note naming the phase and both schema versions
    — never a ``KeyError``.
    """
    lines = [f"{'profile':<16} {'phase':<12} {'old_s':>9} {'new_s':>9} {'delta':>8}"]
    old_profiles = old.get("profiles") or {}
    new_profiles = new.get("profiles") or {}
    shared = [p for p in old_profiles if p in new_profiles]
    if not shared:
        return "no profiles in common between the two runs"
    old_version = old.get("schema_version", "?")
    new_version = new.get("schema_version", "?")
    notes: list[str] = []

    for profile in shared:
        old_phases = old_profiles[profile].get("phases") or {}
        new_phases = new_profiles[profile].get("phases") or {}
        for phase in sorted(set(old_phases) | set(new_phases)):
            if phase in old_phases and phase in new_phases:
                continue
            side = "old" if phase in old_phases else "new"
            notes.append(
                f"note: {profile}: phase {phase!r} only in the {side} run "
                f"(schema v{old_version} vs v{new_version}); skipped"
            )
        for phase in _PHASES:
            # An ivf-large profile carries only the ``ivf`` phase; skip the
            # regular rows it never ran.
            if phase not in old_phases or phase not in new_phases:
                continue
            old_wall = old_phases[phase].get("wall_time_s")
            new_wall = new_phases[phase].get("wall_time_s")
            if old_wall is None or new_wall is None:
                continue
            delta = (new_wall - old_wall) / old_wall * 100 if old_wall else float("nan")
            lines.append(
                f"{profile:<16} {phase:<12} {old_wall:>9.3f} {new_wall:>9.3f} "
                f"{delta:>+7.1f}%"
            )
        # Train throughput: a file with the old two-path ``train`` phase
        # reports its fused figure — what ``train_step`` measures since
        # training has one path; otherwise ``train_step``'s steps/s, which
        # every schema records.
        def _train_sps(phases: dict) -> float | None:
            fused = (phases.get("train") or {}).get("fused") or {}
            step = phases.get("train_step") or {}
            return fused.get("steps_per_s") or step.get("steps_per_s")

        old_sps, new_sps = _train_sps(old_phases), _train_sps(new_phases)
        if old_sps and new_sps:
            ratio = new_sps / old_sps
            lines.append(
                f"{profile:<16} {'train steps/s':<12} {old_sps:>9.1f} "
                f"{new_sps:>9.1f} {'x' + format(ratio, '.2f'):>8}"
            )
        # Query-encoder rows (schema v7): light-encode speedup and recall
        # delta. A pre-v7 file has no ``query.encoder`` block — one-sided
        # presence is noted and skipped, like a one-sided phase.
        old_enc = (old_phases.get("query") or {}).get("encoder")
        new_enc = (new_phases.get("query") or {}).get("encoder")
        if old_enc and new_enc:
            old_speed = old_enc.get("encode_speedup")
            new_speed = new_enc.get("encode_speedup")
            if old_speed and new_speed:
                lines.append(
                    f"{profile:<16} {'light encode':<12} "
                    f"{'x' + format(old_speed, '.2f'):>9} "
                    f"{'x' + format(new_speed, '.2f'):>9} "
                    f"(recall delta {old_enc.get('recall_delta', 0.0):+.3f} "
                    f"-> {new_enc.get('recall_delta', 0.0):+.3f})"
                )
        elif old_enc or new_enc:
            side = "old" if old_enc else "new"
            notes.append(
                f"note: {profile}: block 'query.encoder' only in the "
                f"{side} run (schema v{old_version} vs v{new_version}); "
                f"skipped"
            )
        # Serving-daemon rows (schema v3): QPS ratio and tail-latency delta.
        # Absent on either side (a pre-v3 file) the rows are simply skipped.
        old_serve = old_phases.get("serve")
        new_serve = new_phases.get("serve")
        if old_serve and new_serve:
            old_qps, new_qps = old_serve.get("qps"), new_serve.get("qps")
            if old_qps and new_qps:
                ratio = new_qps / old_qps
                lines.append(
                    f"{profile:<16} {'serve qps':<12} {old_qps:>9.0f} "
                    f"{new_qps:>9.0f} {'x' + format(ratio, '.2f'):>8}"
                )
            old_p99 = old_serve.get("latency_p99_ms")
            new_p99 = new_serve.get("latency_p99_ms")
            if old_p99 and new_p99:
                delta = (new_p99 - old_p99) / old_p99 * 100
                lines.append(
                    f"{profile:<16} {'serve p99 ms':<12} {old_p99:>9.3f} "
                    f"{new_p99:>9.3f} {delta:>+7.1f}%"
                )
        # Stream rows (schema v5): insert throughput ratio and recall-decay
        # delta at the compaction checkpoints.
        old_stream = old_phases.get("stream")
        new_stream = new_phases.get("stream")
        if old_stream and new_stream:
            old_rate = (old_stream.get("insert") or {}).get("items_per_s")
            new_rate = (new_stream.get("insert") or {}).get("items_per_s")
            if old_rate and new_rate:
                ratio = new_rate / old_rate
                lines.append(
                    f"{profile:<16} {'insert items/s':<12} {old_rate:>9.0f} "
                    f"{new_rate:>9.0f} {'x' + format(ratio, '.2f'):>8}"
                )
            old_decay = (old_stream.get("recall") or {}).get("max_decay")
            new_recall = new_stream.get("recall") or {}
            new_decay = new_recall.get("max_decay")
            if old_decay is not None and new_decay is not None:
                lines.append(
                    f"{profile:<16} {'stream decay':<12} {old_decay:>9.3f} "
                    f"{new_decay:>9.3f} "
                    f"(limit {new_recall.get('decay_limit', 0.0):.2f})"
                )
        # IVF rows (schema v4): tuned-best speedup and its recall@10.
        old_best = (old_phases.get("ivf") or {}).get("best")
        new_best = (new_phases.get("ivf") or {}).get("best")
        if old_best and new_best:
            lines.append(
                f"{profile:<16} {'ivf speedup':<12} "
                f"{'x' + format(old_best['speedup'], '.1f'):>9} "
                f"{'x' + format(new_best['speedup'], '.1f'):>9} "
                f"(recall@10 {old_best['recall_at_10']:.3f} -> "
                f"{new_best['recall_at_10']:.3f})"
            )
        # Tune rows (schema v6): grid size and cost-model fit quality.
        old_tune = old_phases.get("tune")
        new_tune = new_phases.get("tune")
        if old_tune and new_tune:
            old_model = old_tune.get("model") or {}
            new_model = new_tune.get("model") or {}
            old_err = old_model.get("mean_rel_error")
            new_err = new_model.get("mean_rel_error")
            if old_err is not None and new_err is not None:
                old_pts = old_tune.get("grid_points", old_model.get("n_points"))
                new_pts = new_tune.get("grid_points", new_model.get("n_points"))
                lines.append(
                    f"{profile:<16} {'tune fit err':<12} "
                    f"{format(old_err * 100, '.1f') + '%':>9} "
                    f"{format(new_err * 100, '.1f') + '%':>9} "
                    f"({old_pts} -> {new_pts} grid points)"
                )
    lines.extend(notes)
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_bench",
        description="Time train-step/encode/index-build/query/serve phases "
        "and write BENCH_results.json",
    )
    parser.add_argument(
        "--profile",
        action="append",
        default=None,
        help="dataset profile (repeatable; accepts the -lt suffix; "
        f"default: all of {', '.join(DEFAULT_PROFILES)})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="1 training epoch, capped query loop"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--nprobe", action="append", type=int, default=None,
        help="nprobe sweep point for the ivf-large profile (repeatable; "
        f"default: {', '.join(str(n) for n in DEFAULT_NPROBES)})",
    )
    parser.add_argument(
        "--ivf-items", type=int, default=None,
        help="corpus size of the ivf-large profile (default: "
        f"{IVF_LARGE_ITEMS:,}; --quick: {IVF_LARGE_QUICK_ITEMS:,})",
    )
    parser.add_argument(
        "--ivf-cells", type=int, default=None,
        help="coarse-quantizer cell count for ivf-large (default: sqrt rule)",
    )
    parser.add_argument(
        "--stream-items", type=int, default=None,
        help="total items streamed through the mutable index in the stream "
        f"phase (default: {STREAM_ITEMS:,}; --quick: {STREAM_QUICK_ITEMS:,})",
    )
    parser.add_argument(
        "--stream-steps", type=int, default=None,
        help="arrival steps of the stream phase (default: "
        f"{STREAM_STEPS}; --quick: {STREAM_QUICK_STEPS})",
    )
    parser.add_argument(
        "--out", default=DEFAULT_RESULTS_PATH,
        help=f"result file (default: {DEFAULT_RESULTS_PATH})",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="compare two existing result files instead of running",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point shared by ``benchmarks/run_bench.py`` and ``repro bench``."""
    args = build_arg_parser().parse_args(argv)
    if args.compare is not None:
        print(compare_results(load_results(args.compare[0]),
                              load_results(args.compare[1])))
        return 0
    profiles = args.profile if args.profile else list(DEFAULT_PROFILES)
    for profile in profiles:
        canonical_dataset(profile)  # fail fast on typos before any training
    results = run_bench(
        profiles, quick=args.quick, seed=args.seed,
        nprobes=tuple(args.nprobe) if args.nprobe else None,
        ivf_items=args.ivf_items, ivf_cells=args.ivf_cells,
        stream_items=args.stream_items, stream_steps=args.stream_steps,
    )
    path = write_results(results, args.out)
    print(format_summary(results))
    print(f"[results written to {path}]")
    return 0
