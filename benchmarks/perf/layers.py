"""Per-layer metrics of the traced run, measured from outside the repo.

Layer = repo module. Each number is timed in this file around calls into
public functions on the workload's own inputs (12 fixed-size blocks, the
quiet quartile over blocks), or read from ``daemon.counts`` / the ``repro.obs``
registry the traced run switches on. A layer the workload does not have
(no model on ``serve-flat-unique``, no daemon on ``train-build-eval``)
reports 0 — "this layer did no work here" — so every run prints the same
set of names. README.md maps each metric to the end-to-end metric it
should move.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from repro.cluster.kmeans import assign_to_centroids, kmeans
from repro.core.trainer import clip_gradients
from repro.data.loader import DataLoader
from repro.nn import Tensor
from repro.obs import names as obs_names
from repro.retrieval import (
    MutableIndex,
    QuantizedIndex,
    SearchRequest,
    build_lookup_tables,
    encode_nearest,
)
from repro.retrieval.lut_cache import LUTCache
from repro.retrieval.persistence import load_index, save_index
from repro.serving import query_signature

import harness as hz
from estimators import MIN_BLOCKS, block_percentile, block_percentiles, quiet_quartile
from workloads import build_ivf


class Bench:
    """Times ``fn`` in 12 blocks of ``calls`` and records one span per block."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def seconds(self, name: str, fn, calls: int = 1, blocks: int = MIN_BLOCKS) -> float:
        """Quiet quartile over blocks of seconds per call; ``fn(i)`` gets a
        running call counter."""
        per_call = []
        counter = 0
        for block in range(blocks):
            with self.recorder.span(name, rid=f"block-{block}"):
                start = time.perf_counter()
                for _ in range(calls):
                    fn(counter)
                    counter += 1
                per_call.append((time.perf_counter() - start) / calls)
        return quiet_quartile(per_call)


def layer_metrics(stage, sz, metrics: dict, info: dict, raw: dict, tracing) -> dict:
    """Every per-layer metric for this workload (0 where the layer is absent)."""
    tracing.set(True)
    bench = Bench(tracing.recorder)
    out: dict[str, float] = {}
    out.update(data_layers(stage, sz, bench))
    out.update(training_layers(stage, sz, bench, raw))
    out.update(cluster_layers(stage, bench))
    out.update(encoding_layers(stage, bench))
    out.update(adc_index_layers(stage, sz, bench))
    out.update(engine_layers(stage, bench, raw))
    out.update(ivf_layers(stage, sz, bench, tracing))
    out.update(lut_cache_layers(stage, bench))
    out.update(mutable_layers(stage, bench))
    out.update(persistence_layers(stage, bench))
    out.update(serving_layers(stage, raw, info, out, bench))
    out["obs.trace.overhead_ratio"] = overhead_ratio(stage, raw)
    return out


# ----------------------------------------------------------------------
# data, nn / core, cluster, encoding
# ----------------------------------------------------------------------
def data_layers(stage, sz, bench: Bench) -> dict:
    source = stage.source
    labels = source.rng.choice(len(source.class_probs), size=8192, p=source.class_probs)
    sample_s = bench.seconds(
        "data.synthetic.sample", lambda i: source.model.sample(labels, source.rng)
    )
    batch_ms = 0.0
    if hasattr(stage, "dataset"):
        loader = DataLoader(stage.dataset.train, batch_size=sz.batch_size, rng=0)
        epoch_s = bench.seconds("data.loader.epoch", lambda i: sum(1 for _ in loader))
        batch_ms = epoch_s / len(loader) * 1e3
    return {
        "data.synthetic.sample_items_per_s": len(labels) / sample_s,
        "data.loader.batch_ms": batch_ms,
    }


TRAINING_NAMES = (
    "core.trainer.step_ms", "core.model.forward_ms", "core.losses.loss_ms",
    "nn.autograd.backward_ms", "core.trainer.clip_ms", "nn.optim.step_ms",
    "core.trainer.unattributed_ratio", "core.model.embed_items_per_s",
    "core.model.embed_single_us", "train_steps_per_s",
)


def training_layers(stage, sz, bench: Bench, raw: dict) -> dict:
    """One fused step replayed with the model / criterion / optimizer the
    Trainer wired, phase by phase; the step itself is timed by run_epoch."""
    if not hasattr(stage, "session"):
        return dict.fromkeys(TRAINING_NAMES, 0.0)
    session, model = stage.session, stage.model
    max_norm = session.trainer.training_config.max_grad_norm
    steps = len(session.loader)
    model.train()
    epoch_s = bench.seconds("core.trainer.run_epoch", lambda i: session.run_epoch(), blocks=6)
    step_s = epoch_s / steps

    batches = [batch for batch, _ in zip(session.loader, range(MIN_BLOCKS * 2))]
    phases: dict[str, list[float]] = {
        name: [] for name in ("forward", "loss", "backward", "clip", "optim")
    }
    span = bench.recorder.span
    for block, (features, labels) in enumerate(batches):
        with span("core.trainer.step", rid=f"replay-{block}"):
            session.optimizer.zero_grad()
            marks = [time.perf_counter()]
            with span("core.model.forward"):
                output = model(Tensor(features))
            marks.append(time.perf_counter())
            with span("core.losses.criterion"):
                breakdown = session.criterion(
                    output.logits, output.quantized, labels, embedding=output.embedding
                )
            marks.append(time.perf_counter())
            with span("nn.autograd.backward"):
                breakdown.total.backward()
            marks.append(time.perf_counter())
            with span("core.trainer.clip_gradients"):
                clip_gradients(session.flat_params, max_norm)
            marks.append(time.perf_counter())
            with span("nn.optim.step"):
                session.optimizer.step()
                session.scheduler.step()
            marks.append(time.perf_counter())
        for name, start, end in zip(phases, marks, marks[1:]):
            phases[name].append(end - start)
    model.eval()
    parts = {name: quiet_quartile(series) for name, series in phases.items()}

    slab = stage.db[:8192]
    embed_s = bench.seconds("core.model.embed", lambda i: model.embed(slab))
    single_s = bench.seconds(
        "core.model.embed_single",
        lambda i: model.embed(stage.sample[i % len(stage.sample)][None, :]), calls=50,
    )
    if "rounds" in raw:  # T: the interleaved training rounds of this run
        steps_per_s = quiet_quartile(raw["rounds"]["train_steps_per_s"], "higher")
    else:
        steps_per_s = 1.0 / step_s
    return {
        "core.trainer.step_ms": step_s * 1e3,
        "core.model.forward_ms": parts["forward"] * 1e3,
        "core.losses.loss_ms": parts["loss"] * 1e3,
        "nn.autograd.backward_ms": parts["backward"] * 1e3,
        "core.trainer.clip_ms": parts["clip"] * 1e3,
        "nn.optim.step_ms": parts["optim"] * 1e3,
        "core.trainer.unattributed_ratio": 1.0 - sum(parts.values()) / step_s,
        "core.model.embed_items_per_s": len(slab) / embed_s,
        "core.model.embed_single_us": single_s * 1e6,
        "train_steps_per_s": steps_per_s,
    }


def cluster_layers(stage, bench: Bench) -> dict:
    points = stage.db[:4096]
    iterations = 4
    fit_s = bench.seconds(
        "cluster.kmeans", lambda i: kmeans(points, 64, rng=i, max_iterations=iterations, tolerance=0.0)
    )
    # k-means++ seeding rides in the total; at 4 Lloyd iterations it is a
    # fixed fifth of it, so the per-iteration figure stays comparable.
    return {"cluster.kmeans.iter_ms": fit_s / iterations * 1e3}


def encoding_layers(stage, bench: Bench) -> dict:
    if not hasattr(stage, "light"):
        return {
            "encoding.light.embed_single_us": 0.0,
            "encoding.light.embed_batch_items_per_s": 0.0,
            "encoding.distill.fit_s": 0.0,
        }
    light, pool = stage.light, stage.pool
    single_s = bench.seconds(
        "encoding.light.embed_single", lambda i: light.embed(pool[i % len(pool)][None, :]), calls=200
    )
    batch_s = bench.seconds("encoding.light.embed_batch", lambda i: light.embed(pool), calls=5)
    return {
        "encoding.light.embed_single_us": single_s * 1e6,
        "encoding.light.embed_batch_items_per_s": len(pool) / batch_s,
        "encoding.distill.fit_s": stage.timings.get("distill", 0.0),
    }


# ----------------------------------------------------------------------
# retrieval
# ----------------------------------------------------------------------
def query_vectors(stage) -> np.ndarray:
    """The workload's own queries in embedding space."""
    return stage.embed(stage.sample)


def embedded(stage, raw: np.ndarray) -> np.ndarray:
    """Raw corpus features in the space the workload indexes."""
    return stage.model.embed(raw) if hasattr(stage, "model") else raw


def embedded_db(stage, rows: int) -> np.ndarray:
    return embedded(stage, stage.db[:rows])


def adc_index_layers(stage, sz, bench: Bench) -> dict:
    queries, codebooks = query_vectors(stage), stage.codebooks
    lut_s = bench.seconds(
        "retrieval.adc.build_lookup_tables",
        lambda i: build_lookup_tables(queries[i % len(queries)][None, :], codebooks), calls=100,
    )
    slab = embedded_db(stage, 2048)
    encode_s = bench.seconds(
        "retrieval.adc.encode_nearest", lambda i: encode_nearest(slab, codebooks, residual=True)
    )
    block = embedded_db(stage, 8192)
    build_s = bench.seconds(
        "retrieval.index.build", lambda i: QuantizedIndex.build(codebooks, block)
    )
    return {
        "retrieval.adc.lut_build_us": lut_s * 1e6,
        "retrieval.adc.encode_nearest_items_per_s": len(slab) / encode_s,
        "retrieval.index.build_items_per_s": len(block) / build_s,
        "retrieval.index.build_large_s": stage.timings.get("index_build", 0.0),
    }


def engine_layers(stage, bench: Bench, raw: dict) -> dict:
    """The flat scan (``nprobe=0`` where the engine has an IVF layer)."""
    engine = stage.direct
    queries = query_vectors(stage)
    flat = {"nprobe": 0} if engine.ivf is not None else {}

    def search(rows: int, rerank: bool | None = None):
        def call(i: int):
            lo = (i * rows) % (len(queries) - rows)
            return engine.search(
                SearchRequest(queries=queries[lo:lo + rows], k=hz.K, rerank=rerank, **flat)
            )
        return call

    single_s = bench.seconds("retrieval.engine.search_single", search(1), calls=8)
    plain_s = bench.seconds("retrieval.engine.search_single_norerank", search(1, False), calls=8)
    batch8_s = bench.seconds("retrieval.engine.search_batch8", search(8), calls=2)
    batch16_s = bench.seconds("retrieval.engine.search_batch16", search(16), calls=2)
    sharded = engine.sharded
    return {
        "retrieval.engine.search_single_ms": single_s * 1e3,
        "retrieval.engine.search_batch_qps": 16 / batch16_s,
        "retrieval.engine.scan_codes_per_s": len(sharded) * sharded.num_codebooks / plain_s,
        "retrieval.engine.rerank_ms": (single_s - plain_s) * 1e3,
        "retrieval.engine.batch_scaling": (batch8_s / 8) / single_s,
        # T: the interleaved 64-query searches of this run's rounds
        "batch_search_qps": (
            quiet_quartile(raw["rounds"]["batch_search_qps"], "higher") if "rounds" in raw else 0.0
        ),
    }


IVF_NAMES = (
    "retrieval.ivf.search_single_ms", "retrieval.ivf.candidates_per_query",
    "retrieval.ivf.cells_probed", "retrieval.ivf.build_s",
    "retrieval.ivf.assign_items_per_s", "ivf_build_items_per_s",
)


def ivf_layers(stage, sz, bench: Bench, tracing) -> dict:
    ivf = getattr(stage, "ivf", None)
    if ivf is None:
        return dict.fromkeys(IVF_NAMES, 0.0)
    queries = query_vectors(stage)
    registry = tracing.registry  # the repo's own counts, taken while obs is on
    single_s = bench.seconds(
        "retrieval.ivf.search_single",
        lambda i: ivf.search_with_distances(queries[i % len(queries)][None, :], k=hz.K), calls=16,
    )
    block = QuantizedIndex.build(stage.codebooks, embedded_db(stage, sz.build_items))
    build_s = bench.seconds(
        "retrieval.ivf.build", lambda i: build_ivf(block, sz.build_cells, i), blocks=6
    )
    rows = block.reconstructions()
    assign_s = bench.seconds(
        "cluster.kmeans.assign_to_centroids", lambda i: assign_to_centroids(rows, ivf.centroids)
    )
    return {
        "retrieval.ivf.search_single_ms": single_s * 1e3,
        "retrieval.ivf.candidates_per_query": registry.histogram(obs_names.IVF_CANDIDATES_SCANNED).mean,
        "retrieval.ivf.cells_probed": registry.histogram(obs_names.IVF_CELLS_PROBED).mean,
        "retrieval.ivf.build_s": stage.timings.get("ivf_build", 0.0),
        "retrieval.ivf.assign_items_per_s": len(block) / assign_s,
        "ivf_build_items_per_s": len(block) / build_s,
    }


def lut_cache_layers(stage, bench: Bench) -> dict:
    queries, codebooks = query_vectors(stage), stage.codebooks
    cache = LUTCache(4096)
    fresh = np.random.default_rng(0).normal(size=(4096, queries.shape[1]))
    miss_s = bench.seconds(
        "retrieval.lut_cache.tables_miss",
        lambda i: cache.tables(fresh[i % len(fresh)][None, :], codebooks), calls=100,
    )
    cache.tables(queries[:1], codebooks)
    hit_s = bench.seconds(
        "retrieval.lut_cache.tables_hit", lambda i: cache.tables(queries[:1], codebooks), calls=100
    )
    hits, misses = stage.lut_cache_counts()
    return {
        "retrieval.lut_cache.hit_ratio": hits / max(hits + misses, 1),
        "retrieval.lut_cache.tables_hit_us": hit_s * 1e6,
        "retrieval.lut_cache.tables_miss_us": miss_s * 1e6,
    }


#: One mutation round of the scratch index, and its IVF layer.
ADD_ROWS, REMOVE_ROWS, SCRATCH_ROWS, SCRATCH_CELLS = 256, 128, 8192, 16


def mutable_layers(stage, bench: Bench) -> dict:
    """A scratch MutableIndex (IVF engine) over a slice of the workload's
    corpus, mutated in isolation: no workload serves one (README, "What
    became of serve-mutable-churn")."""
    base = QuantizedIndex.build(stage.codebooks, embedded_db(stage, SCRATCH_ROWS))
    adds = embedded(stage, stage.source.draw(16 * ADD_ROWS)[0])
    queries = query_vectors(stage)
    with MutableIndex.from_index(
        base, engine_kwargs={"ivf": SCRATCH_CELLS, "nprobe": 8}
    ) as scratch:
        seg1_s = bench.seconds(
            "retrieval.mutable.search.seg1",
            lambda i: scratch.search_with_distances(queries[i % len(queries)][None, :], k=hz.K), calls=8,
        )
        new_ids: list[np.ndarray] = []

        def add(i: int) -> None:
            lo = (i * ADD_ROWS) % (len(adds) - ADD_ROWS)
            before = scratch.id_bound
            scratch.add(adds[lo:lo + ADD_ROWS])
            new_ids.append(np.arange(before, before + ADD_ROWS))

        add_s = bench.seconds("retrieval.mutable.add", add, blocks=8)
        seg8_s = bench.seconds(
            "retrieval.mutable.search.seg8",
            lambda i: scratch.search_with_distances(queries[i % len(queries)][None, :], k=hz.K), calls=8,
        )
        remove_s = bench.seconds(
            "retrieval.mutable.remove",
            lambda i: scratch.remove(new_ids[i][:REMOVE_ROWS]), blocks=8,
        )
        segments = scratch.num_segments

        def compact(i: int) -> None:
            scratch.add(adds[:ADD_ROWS])
            scratch.compact()

        with_add_s = bench.seconds("retrieval.mutable.add+compact", compact, blocks=6)
    return {
        "retrieval.mutable.add_items_per_s": ADD_ROWS / add_s,
        "retrieval.mutable.remove_items_per_s": REMOVE_ROWS / remove_s,
        "retrieval.mutable.compact_ms": max(with_add_s - add_s, 0.0) * 1e3,
        "retrieval.mutable.search_single_ms.seg1": seg1_s * 1e3,
        # base + 8 added segments
        "retrieval.mutable.search_single_ms.seg8": seg8_s * 1e3 if segments >= 9 else 0.0,
    }


def persistence_layers(stage, bench: Bench) -> dict:
    index = stage.index
    path = hz.OUT_DIR / "persistence-probe.npz"
    hz.OUT_DIR.mkdir(parents=True, exist_ok=True)
    save_s = bench.seconds("retrieval.persistence.save_index", lambda i: save_index(index, str(path)), blocks=6)
    megabytes = path.stat().st_size / 1e6
    load_s = bench.seconds("retrieval.persistence.load_index", lambda i: load_index(str(path)), blocks=6)
    path.unlink()
    return {
        "retrieval.persistence.save_mb_per_s": megabytes / save_s,
        "retrieval.persistence.load_mb_per_s": megabytes / load_s,
    }


# ----------------------------------------------------------------------
# serving, traffic, obs
# ----------------------------------------------------------------------
SERVING_NAMES = (
    "serving.daemon.miss_latency_ms", "serving.daemon.overhead_ms", "serving.daemon.retries", "serving.daemon.hedges", "serving.daemon.degraded_transitions",
    "serving.daemon.shed", "serving.daemon.failed", "serving.batcher.batch_size_mean",
    "serving.batcher.queue_depth_p95", "serving.batcher.linger_ms", "serving.cache.hit_ratio",
    "serving.cache.hit_latency_us",
)


def serving_layers(stage, raw: dict, info: dict, sofar: dict, bench: Bench) -> dict:
    queries = query_vectors(stage)
    signature_s = bench.seconds(
        "serving.cache.query_signature",
        lambda i: query_signature(stage.sample[i % len(stage.sample)], hz.K), calls=200,
    )
    indices, distances = stage.search_direct(queries[:1], k=hz.K)
    answer = SimpleNamespace(indices=indices[0], distances=distances[0])
    validate_s = bench.seconds(
        "serving.replica.validate_response", lambda i: stage.check(answer), calls=200
    )
    out = {
        "serving.cache.signature_us": signature_s * 1e6,
        "serving.replica.validate_us": validate_s * 1e6,
        "serving.traffic.generator_lag_ms": info["generator_lag_p95_ms"],
    }
    if stage.daemon is None:
        out.update(dict.fromkeys(SERVING_NAMES, 0.0))
        return out

    opened, counts = raw["open"], raw["counts"]
    config = stage.daemon.config
    sent_latency = opened.latency_s - opened.lag_s  # from the send, not the due instant
    miss = opened.ok & ~opened.from_cache
    hit = opened.ok & opened.from_cache
    # Misses are a tenth of a block on the Zipf workload: twelve wide blocks.
    miss_ms = block_percentile(sent_latency[miss] * 1e3, 50, MIN_BLOCKS)
    search_s = bench.seconds(
        "serving.replica.search",
        lambda i: stage.search_direct(queries[i % len(queries)][None, :], k=hz.K), calls=8,
    )
    # What the isolated layers explain of one miss: encode + signature +
    # the direct scan (LUT build included) + response validation.
    explained_ms = (
        sofar.get("encoding.light.embed_single_us", 0.0) / 1e3
        + signature_s * 1e3 + search_s * 1e3 + validate_s * 1e3
    )
    out.update({
        "serving.daemon.miss_latency_ms": miss_ms,
        "serving.daemon.overhead_ms": miss_ms - explained_ms,
        "serving.daemon.retries": float(counts.get("retries", 0)),
        "serving.daemon.hedges": float(counts.get("hedges", 0)),
        "serving.daemon.degraded_transitions": float(counts.get("degraded_transitions", 0)),
        "serving.daemon.shed": float(counts.get("shed", 0)),
        "serving.daemon.failed": float(counts.get("failed", 0)),
        "serving.batcher.batch_size_mean": raw["batch_size_mean"],
        "serving.batcher.queue_depth_p95": raw["queue_depth_p95"],
        "serving.batcher.linger_ms": config.batch_delay_s * 1e3,
        "serving.cache.hit_ratio": float(opened.from_cache.mean()),  # of the open-loop stream
        "serving.cache.hit_latency_us": float(np.median(sent_latency[hit])) * 1e6 if hit.any() else 0.0,
    })
    return out


def overhead_ratio(stage, raw: dict) -> float:
    """Cost with tracing on over cost with it off, from alternating blocks
    of one run: open-loop p50 for the serve workloads, step time for T."""
    if stage.daemon is None:
        rates = np.asarray(raw["rounds"]["train_steps_per_s"])
        traced = np.asarray(raw["traced_rounds"])
        return quiet_quartile(rates[~traced], "higher") / quiet_quartile(rates[traced], "higher")
    p50 = block_percentiles(raw["open"].latency_s, 50, raw["n_blocks"])
    return quiet_quartile(p50[0::2]) / quiet_quartile(p50[1::2])
