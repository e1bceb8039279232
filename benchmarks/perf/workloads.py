"""The three workloads: what each sets up, drives, and checks.

Each workload stresses a different set of layers (see README, "Why each
workload exists") and reports every end-to-end metric on its own inputs.
Sizes are fixed here; ``--scale smoke`` divides the countable ones for the
test suite.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from types import SimpleNamespace

import numpy as np

from repro.core.losses import LossConfig
from repro.core.model import LightLTConfig
from repro.core.trainer import Trainer, TrainingConfig, warm_start_prototypes
from repro.core.warmstart import residual_kmeans_codebooks, warm_start_codebooks
from repro.data.datasets import RetrievalDataset, Split
from repro.data.longtail import labels_from_sizes, zipf_class_sizes
from repro.encoding import distill_query_encoder
from repro.encoding.distill import default_distill_training_config
from repro.retrieval import (
    IVFIndex,
    QuantizedIndex,
    QueryEngine,
    SearchRequest,
    ShardedIndex,
)
from repro.retrieval.metrics import mean_average_precision
from repro.serving import ServingDaemon

import harness as hz
from estimators import (
    MIN_BLOCKS,
    block_percentile,
    block_percentiles,
    block_share,
    generator_lag,
    quiet_quartile,
)

#: Sizes divided by this under ``--scale smoke``.
SMOKE_DIVISOR = 20



# ----------------------------------------------------------------------
# Pieces shared by the set-ups
# ----------------------------------------------------------------------
def kmeans_codebooks(source: hz.Source, vectors: np.ndarray, sz) -> np.ndarray:
    return residual_kmeans_codebooks(
        vectors[: sz.codebook_sample], sz.M, sz.K, rng=source.rng, max_iterations=8
    )


def train_teacher(seed: int, source: hz.Source, sz, queries: Split, database: Split):
    """Briefly train a fused-path LightLT on a long-tail training split."""
    sizes = zipf_class_sizes(sz.classes, sz.head_size, hz.IMBALANCE)
    train_labels = labels_from_sizes(sizes, source.rng)
    train = Split(source.model.sample(train_labels, source.rng), train_labels)
    dataset = RetrievalDataset(
        "perf", sz.classes, hz.IMBALANCE, train=train, query=queries, database=database
    )
    trainer = Trainer(
        LightLTConfig(
            input_dim=sz.dim, num_classes=sz.classes, embed_dim=sz.dim,
            num_codebooks=sz.M, num_codewords=sz.K,
        ),
        LossConfig(),
        # epochs only sizes the LR schedule; the benchmark steps the session.
        TrainingConfig(epochs=200, batch_size=sz.batch_size, fused=True),
        seed=seed,
    )
    model, criterion = trainer.build(dataset)
    # The Trainer's own warm start runs 25 k-means iterations per level;
    # a brief one is enough for a brief training and keeps set-up short.
    warm_start_codebooks(model, train.features, rng=seed, max_iterations=5)
    warm_start_prototypes(model, criterion, dataset)
    session = trainer.start_session(
        dataset, model=model, criterion=criterion, run_warm_start=False
    )
    for _ in range(sz.setup_epochs):
        session.run_epoch()
    model.eval()
    return dataset, session


def timed(timings: dict, key: str, fn):
    """Run ``fn()``; file its one-shot duration under ``timings[key]``."""
    start = time.perf_counter()
    value = fn()
    timings[key] = time.perf_counter() - start
    return value


def build_ivf(index: QuantizedIndex, cells: int, seed: int) -> IVFIndex:
    return IVFIndex.build(
        index, cells, nprobe=8, train_sample=8192, kmeans_iterations=10, seed=seed
    )


def embedding_request(vector: np.ndarray) -> SearchRequest:
    return SearchRequest(queries=vector, k=hz.K)


def chunked_search(search, queries: np.ndarray, k: int) -> np.ndarray:
    """Ids of a direct batch search, 32 queries a call: one 256-query call
    on 100k items takes 2.2 s, the same queries in chunks 0.4 s."""
    return np.concatenate([
        search(queries[lo:lo + 32], k=k)[0] for lo in range(0, len(queries), 32)
    ])


def quality(stage) -> dict:
    """recall@10 against the brute-force oracle and label MAP@100 (the
    paper's metric at a cutoff every path can serve: a pruned IVF scan cannot
    produce the full ranking) of the direct engine on the evaluation queries.

    1 024 queries, the served 256-query sample at their head: per-query
    recall has a standard deviation near 0.25, so 256 queries alone move the
    mean by 2-3 % from seed to seed, more than a regression worth catching.
    """
    queries = stage.embed(stage.eval)
    answers = chunked_search(stage.search_direct, queries, hz.K)
    ranked = chunked_search(stage.search_direct, queries, hz.MAP_CUTOFF)
    return {
        "recall_at_10": hz.recall_at_k(answers, stage.oracle()),
        "retrieval_map": mean_average_precision(
            stage.db_labels[ranked], stage.eval_labels, cutoff=hz.MAP_CUTOFF
        ),
    }


def single_answers(search, queries: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """One direct single-query scan per row: the parity reference."""
    out = []
    for i in range(len(queries)):
        indices, distances = search(queries[i:i + 1], k=hz.K)
        out.append((indices[0], distances[0]))
    return out


def slice_start(round_id: int, total: int, width: int) -> int:
    """A different fixed-width slice of the corpus each round."""
    return (round_id * 997) % max(total - width, 1)


# ----------------------------------------------------------------------
# Serve stages (F, Z): one daemon, one request stream, one reference
# ----------------------------------------------------------------------
class ServeStage:
    """What the serve driver needs from a workload's set-up."""

    def teardown(self) -> None:
        for replica in self.daemon.replica_set.replicas:
            replica.engine.close()
        self.direct.close()

    def check(self, result) -> bool:
        return hz.answer_ok(result, self.n_db)

    # Unique embedding queries: the open loop reads ``queries`` from the
    # front, the closed loop from the back, so neither repeats the other.
    def warm_request(self, i: int) -> SearchRequest:
        return embedding_request(self.sample[i])

    def open_request(self, i: int) -> SearchRequest:
        return embedding_request(self.queries[i % len(self.queries)])

    def closed_request(self, i: int) -> SearchRequest:
        return embedding_request(self.queries[-1 - i % len(self.queries)])

    def sample_request(self, i: int) -> SearchRequest:
        return embedding_request(self.sample[i])

    def embed(self, raw: np.ndarray) -> np.ndarray:
        """Raw query features -> the embedding space the index searches in."""
        return raw

    def open_keep(self, n: int):
        """Mask of open-loop requests whose answers are parity-checked."""
        return None

    def lut_cache_counts(self) -> tuple[int, int]:
        """(hits, misses) of the LUT caches on the serve path."""
        caches = {
            id(cache): cache
            for replica in self.daemon.replica_set.replicas
            for cache in (replica.engine.lut_cache, getattr(replica.engine.ivf, "lut_cache", None))
            if cache is not None
        }
        return (
            sum(cache.hits for cache in caches.values()),
            sum(cache.misses for cache in caches.values()),
        )

    def offline_tasks(self, sz) -> dict:
        """Fixed-size index-build blocks, run before the daemon starts."""
        def build(round_id: int) -> float:
            lo = slice_start(round_id, len(self.db), sz.build_items)
            start = time.perf_counter()
            self.build_block(lo)
            return sz.build_items / (time.perf_counter() - start)

        return {"index_build_items_per_s": build}


class FlatStage(ServeStage):
    def __init__(self, seed: int, sz) -> None:
        self.sz = sz
        self.source = source = hz.make_source(seed, sz.classes, sz.dim)
        self.db, self.db_labels = source.draw(sz.n_db)
        self.codebooks = kmeans_codebooks(source, self.db, sz)
        self.timings = {}
        self.index = timed(self.timings, "index_build", lambda: QuantizedIndex.build(
            self.codebooks, self.db, labels=self.db_labels
        ))
        self.queries, _ = source.draw(sz.n_queries)
        self.eval, self.eval_labels = source.draw(hz.EVAL_QUERIES)
        self.sample = self.eval[: hz.SAMPLE_QUERIES]
        self.daemon = ServingDaemon(self.index, num_replicas=2, config=hz.serving_config())
        self.direct = QueryEngine(ShardedIndex(self.index, 1), parallel="never")
        self.n_db = len(self.index)
        self.search_direct = self.direct.search_with_distances

    def oracle(self):
        return hz.oracle_topk(self.eval, self.db)

    def index_bytes(self):
        return self.direct.sharded.nbytes / self.n_db

    def build_block(self, lo):
        ShardedIndex(QuantizedIndex.build(self.codebooks, self.db[lo:lo + self.sz.build_items]), 1)


class ZipfStage(ServeStage):
    def __init__(self, seed: int, sz) -> None:
        self.seed = seed
        self.sz = sz
        self.source = source = hz.make_source(seed, sz.classes, sz.dim)
        self.db, self.db_labels = source.draw(sz.n_db)
        self.pool, self.pool_labels = source.draw(sz.pool)
        self.eval = self.pool[: hz.EVAL_QUERIES]
        self.eval_labels = self.pool_labels[: hz.EVAL_QUERIES]
        self.sample = self.eval[: hz.SAMPLE_QUERIES]
        self.dataset, self.session = train_teacher(
            seed, source, sz, Split(self.eval, self.eval_labels),
            Split(self.db, self.db_labels),
        )
        self.model = self.session.model
        self.timings = {}
        self.index = timed(self.timings, "index_build", lambda: self.model.build_index(
            self.db, labels=self.db_labels
        ))
        self.codebooks = self.index.codebooks
        self.ivf = timed(self.timings, "ivf_build", lambda: build_ivf(self.index, sz.cells, seed))
        self.light, _ = timed(self.timings, "distill", lambda: distill_query_encoder(
            self.model, self.dataset,
            training_config=dataclasses.replace(
                default_distill_training_config(), epochs=sz.distill_epochs
            ),
            seed=seed,
        ))
        engine_kwargs = {"ivf": self.ivf, "nprobe": 8}
        self.daemon = ServingDaemon(
            self.index, num_replicas=2, config=hz.serving_config(),
            engine_kwargs=engine_kwargs, query_encoders={"light": self.light},
        )
        self.direct = QueryEngine(self.index, **engine_kwargs)
        self.n_db = len(self.index)
        self.requests = [
            SearchRequest(queries=row, k=hz.K, encoder="light") for row in self.pool
        ]
        # The closed loop measures capacity on the miss path: never-repeating
        # raw features. (A closed loop of cache hits, which return without
        # suspending, measures the client; and its rate swings with the
        # realised miss share — 18 % spread over ten seeds.)
        fresh, _ = source.draw(sz.closed_queries)
        self.closed_requests = [
            SearchRequest(queries=row, k=hz.K, encoder="light") for row in fresh
        ]
        self.order = hz.zipf_indices(
            np.random.default_rng([seed, 1]), sz.pool, sz.zipf_exponent, sz.n_draws
        )
        self.search_direct = self.direct.search_with_distances

    # Raw-feature requests drawn Zipf from the pool; the sample is its head.
    def warm_request(self, i: int) -> SearchRequest:
        return self.requests[len(self.requests) - 1 - i]

    def open_request(self, i: int) -> SearchRequest:
        return self.requests[self.order[i % len(self.order)]]

    def closed_request(self, i: int) -> SearchRequest:
        return self.closed_requests[i % len(self.closed_requests)]

    def sample_request(self, i: int) -> SearchRequest:
        return self.requests[i]

    def open_keep(self, n):
        return self.order[:n] < hz.SAMPLE_QUERIES

    def open_sample_row(self, i):
        return int(self.order[i])

    def embed(self, raw):
        return self.light.embed(raw)

    def oracle(self):
        # Teacher embeddings on both sides: what the light encoder loses
        # against the full encoder counts against recall.
        return hz.oracle_topk(self.model.embed(self.eval), self.model.embed(self.db))

    def index_bytes(self):
        return (self.direct.sharded.nbytes + self.ivf.nbytes) / self.n_db

    def build_block(self, lo):
        sz = self.sz
        build_ivf(self.model.build_index(self.db[lo:lo + sz.build_items]), sz.build_cells, self.seed)


# ----------------------------------------------------------------------
# The serve driver
# ----------------------------------------------------------------------
def serve_rounds(sz, seconds: float) -> int:
    """How many {open-loop block, closed-loop slice} rounds fit ``seconds``:
    block and slice sizes are fixed, so a longer run has more blocks, not
    longer ones."""
    round_s = sz.block_requests / sz.open_rate + sz.slice_ms / 1e3
    return max(int(seconds / round_s), MIN_BLOCKS)


async def serve_phases(stage: ServeStage, sz, seconds: float, ops: hz.Ops, tracing) -> dict:
    """Rounds of {open-loop block, closed-loop slice}, then the fixed sample
    — one daemon session."""
    n_blocks = serve_rounds(sz, seconds)
    gap_s = sz.slice_ms / 1e3
    daemon = stage.daemon
    async with daemon:
        for i in range(16):  # fill lazy paths before anything is timed
            await daemon.submit(stage.warm_request(i))
        start = asyncio.get_running_loop().time() + 0.05
        opened, closed = await asyncio.gather(
            hz.open_loop(
                daemon, stage.open_request, sz.open_rate, n_blocks, sz.block_requests, ops,
                stage.check, start=start, gap_s=gap_s,
                keep=stage.open_keep(n_blocks * sz.block_requests), recorder=tracing.recorder,
                toggle=tracing.toggle,
            ),
            hz.closed_slices(
                daemon, stage.closed_request,
                hz.slice_windows(start, sz.open_rate, n_blocks, sz.block_requests, gap_s),
                ops, stage.check,
            ),
        )
        tracing.set(True)
        sample = await hz.serve_sample(
            daemon, stage.sample_request, hz.SAMPLE_QUERIES, ops, stage.check
        )
        counts = dict(daemon.counts)
    return {
        "open": opened, "closed": closed, "sample": sample, "counts": counts, "n_blocks": n_blocks,
        "direct": single_answers(stage.search_direct, stage.embed(stage.sample)),
        "index_bytes_per_item": stage.index_bytes(),
        **quality(stage),
    }


def serve_metrics(stage: ServeStage, sz, served: dict, ops: hz.Ops) -> dict:
    """Serve-side end-to-end metrics, plus the parity and recall checks."""
    opened, n_blocks = served["open"], served["n_blocks"]
    latency_ms = opened.latency_s * 1e3
    within = opened.ok & (latency_ms <= sz.limit_ms)

    # Parity: every retained open-loop answer and every sample answer must
    # equal the direct single-query scan.
    direct = served["direct"]
    for i, got in opened.answers.items():
        ops.record(
            hz.same_answer(got, direct[stage.open_sample_row(i)]),
            f"open-loop answer {i} differs from the direct scan",
        )
    for row, got in enumerate(served["sample"]):
        if got is not None:  # a lost request was counted when it was lost
            ops.record(
                hz.same_answer(got, direct[row]),
                f"sample answer {row} differs from the direct scan",
            )
    return {
        "latency_p50_ms": block_percentile(latency_ms, 50, n_blocks),
        "latency_p95_ms": block_percentile(latency_ms, 95, n_blocks),
        "within_limit_ratio": block_share(within, n_blocks),
        "closed_loop_qps": quiet_quartile(served["closed"], "higher"),
        "recall_at_10": served["recall_at_10"],
        "retrieval_map": served["retrieval_map"],
        "index_bytes_per_item": served["index_bytes_per_item"],
    }, {
        "latency_samples": len(latency_ms),
        "latency_blocks": n_blocks,
        "generator_lag_p95_ms": generator_lag(opened.sent, opened.due) * 1e3,
        "offered_qps": sz.open_rate,
        "limit_ms": sz.limit_ms,
        "cache_hit_ratio": float(opened.from_cache.mean()),
        "daemon_counts": served["counts"],
        "blocks": {
            "latency_p50_ms": block_percentiles(latency_ms, 50, n_blocks),
            "latency_p95_ms": block_percentiles(latency_ms, 95, n_blocks),
            "closed_loop_qps": served["closed"].tolist(),
        },
    }


# ----------------------------------------------------------------------
# T: train-build-eval — the paper's pipeline, in-process, no daemon
# ----------------------------------------------------------------------
class TrainStage:
    daemon = None

    def __init__(self, seed: int, sz) -> None:
        self.seed = seed
        self.sz = sz
        self.source = source = hz.make_source(seed, sz.classes, sz.dim)
        self.db, self.db_labels = source.draw(sz.n_db)
        self.queries, query_labels = source.draw(sz.n_queries)
        self.eval = self.queries[: hz.EVAL_QUERIES]
        self.eval_labels = query_labels[: hz.EVAL_QUERIES]
        self.sample = self.eval[: hz.SAMPLE_QUERIES]
        self.dataset, self.session = train_teacher(
            seed, source, sz, Split(self.eval, self.eval_labels),
            Split(self.db, self.db_labels),
        )
        self.model = self.session.model
        # Training continues during the measured rounds; the state the index
        # was built from is restored before quality is scored.
        self.trained = self.session.capture()
        self.timings = {}
        self.index = timed(self.timings, "index_build", lambda: self.model.build_index(
            self.db, labels=self.db_labels
        ))
        self.codebooks = self.index.codebooks
        self.ivf = timed(self.timings, "ivf_build", lambda: build_ivf(self.index, sz.cells, seed))
        self.direct = QueryEngine(ShardedIndex(self.index, 1), parallel="never")
        self.search_direct = self.direct.search_with_distances
        self.n_db = len(self.index)
        self.latency_s: list[np.ndarray] = []
        self.lag_s: list[np.ndarray] = []

    def teardown(self) -> None:
        self.direct.close()

    def check(self, result) -> bool:
        return hz.answer_ok(result, self.n_db)

    def embed(self, raw: np.ndarray) -> np.ndarray:
        return self.model.embed(raw)

    def oracle(self) -> np.ndarray:
        return hz.oracle_topk(self.model.embed(self.eval), self.model.embed(self.db))

    def lut_cache_counts(self):
        return self.direct.lut_cache.hits, self.direct.lut_cache.misses

    def query(self, i: int):
        """The library user's single query: embed raw features, ADC search."""
        row = i % len(self.queries)
        embedded = self.model.embed(self.queries[row:row + 1])
        return self.search_direct(embedded, k=hz.K)

    def offline_tasks(self, sz, ops: hz.Ops) -> dict:
        model, db = self.model, self.db
        counter = [0]

        def train(round_id: int) -> float:
            model.train()
            start = time.perf_counter()
            report = self.session.run_epoch()
            elapsed = time.perf_counter() - start
            model.eval()
            ops.record(report.healthy, f"training round {round_id}: skipped or non-finite step")
            return len(self.session.loader) / elapsed

        def build(round_id: int) -> float:
            lo = slice_start(round_id, len(db), sz.build_items)
            start = time.perf_counter()
            index = model.build_index(db[lo:lo + sz.build_items])
            mid = time.perf_counter()
            build_ivf(index, sz.build_cells, self.seed)
            end = time.perf_counter()
            self.ivf_rates.append(sz.build_items / (end - mid))
            return sz.build_items / (end - start)

        def search(round_id: int) -> float:
            embedded = model.embed(self.queries)
            start = time.perf_counter()
            for call in range(sz.search_calls):
                lo = ((round_id * sz.search_calls + call) * sz.search_chunk) % (
                    len(embedded) - sz.search_chunk
                )
                self.search_direct(embedded[lo:lo + sz.search_chunk], k=hz.K)
            return sz.search_calls * sz.search_chunk / (time.perf_counter() - start)

        def latency(round_id: int) -> float:
            base = counter[0]
            counter[0] += sz.latency_block
            lat, lag = hz.paced_calls(
                lambda i: self.query(base + i), sz.latency_block, sz.query_rate
            )
            self.latency_s.append(lat)
            self.lag_s.append(lag)
            return float(np.percentile(lat, 50))

        def closed(round_id: int) -> float:
            base = counter[0]
            counter[0] += sz.closed_block
            start = time.perf_counter()
            for i in range(sz.closed_block):
                indices, distances = self.query(base + i)
                answer = SimpleNamespace(indices=indices[0], distances=distances[0])
                ops.record(self.check(answer), "in-process query returned a malformed answer")
            return sz.closed_block / (time.perf_counter() - start)

        self.ivf_rates: list[float] = []
        return {
            "train_steps_per_s": train,
            "index_build_items_per_s": build,
            "batch_search_qps": search,
            "latency": latency,
            "closed_loop_qps": closed,
        }

    def metrics(self, sz, rounds: dict[str, list[float]], ops: hz.Ops) -> tuple[dict, dict]:
        self.session.restore(self.trained)
        self.model.eval()
        latency_ms = np.concatenate(self.latency_s) * 1e3
        n_blocks = len(self.latency_s)
        within = latency_ms <= sz.limit_ms
        embedded = self.model.embed(self.sample)
        answers, _ = self.search_direct(embedded, k=hz.K)
        # Parity across the repo's own two flat paths: the engine's float32
        # scan + float64 rerank must reproduce the serial reference scan.
        reference = self.index.search(SearchRequest(queries=embedded, k=hz.K))
        ops.record(
            np.array_equal(answers, reference.indices),
            "QueryEngine answers differ from QuantizedIndex.search",
        )
        return {
            "latency_p50_ms": block_percentile(latency_ms, 50, n_blocks),
            "latency_p95_ms": block_percentile(latency_ms, 95, n_blocks),
            "within_limit_ratio": block_share(within, n_blocks),
            "closed_loop_qps": quiet_quartile(rounds["closed_loop_qps"], "higher"),
            "index_build_items_per_s": quiet_quartile(rounds["index_build_items_per_s"], "higher"),
            "index_bytes_per_item": (self.direct.sharded.nbytes + self.ivf.nbytes) / self.n_db,
            **quality(self),
        }, {
            "latency_samples": len(latency_ms),
            "generator_lag_p95_ms": float(np.percentile(np.concatenate(self.lag_s), 95)) * 1e3,
            "offered_qps": sz.query_rate,
            "limit_ms": sz.limit_ms,
            "latency_blocks": n_blocks,
            "train_steps_per_s": quiet_quartile(rounds["train_steps_per_s"], "higher"),
            "batch_search_qps": quiet_quartile(rounds["batch_search_qps"], "higher"),
            "ivf_build_items_per_s": quiet_quartile(self.ivf_rates, "higher"),
            "blocks": {
                "latency_p50_ms": [float(np.percentile(b, 50)) * 1e3 for b in self.latency_s],
                "latency_p95_ms": [float(np.percentile(b, 95)) * 1e3 for b in self.latency_s],
                **{name: rounds[name] for name in rounds if name != "latency"},
            },
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    stage: type
    sizes: dict
    #: Countable sizes ``--scale smoke`` divides, with their floors.
    smoke_floors: dict

    def sizes_at(self, scale: str) -> SimpleNamespace:
        sizes = dict(self.sizes)
        if scale == "smoke":
            for key, floor in self.smoke_floors.items():
                sizes[key] = max(sizes[key] // SMOKE_DIVISOR, floor)
        return SimpleNamespace(**sizes)


_COMMON = dict(classes=100, M=8, build_items=8192, setups=5)
_COMMON_FLOORS = dict(n_db=4096, build_items=1024, setups=1)
#: A serve round: one open-loop block, then one closed-loop slice (of which
#: 2 x 25 ms are margins and the first 50 ms are driven but not counted).
#: Build blocks run before the daemon starts.
_SERVE = dict(block_requests=100, slice_ms=450, build_blocks=24)
_SERVE_FLOORS = dict(block_requests=8, slice_ms=100, build_blocks=MIN_BLOCKS)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="serve-flat-unique",
        stage=FlatStage,
        sizes=dict(
            _COMMON | _SERVE, dim=32, K=64, n_db=100_000, codebook_sample=4096, n_queries=12_000,
            build_items=16_384, open_rate=110.0, limit_ms=12.0,
        ),
        smoke_floors=dict(_COMMON_FLOORS | _SERVE_FLOORS, n_queries=2048),
    ),
    Workload(
        name="serve-ivf-zipf-raw",
        stage=ZipfStage,
        sizes=dict(
            _COMMON | _SERVE, dim=32, K=64, n_db=30_000, head_size=300, batch_size=64,
            setup_epochs=2, distill_epochs=2, cells=128, build_cells=32, pool=2000,
            zipf_exponent=0.8, n_draws=8192, closed_queries=8192, open_rate=200.0,
            limit_ms=6.0,
        ),
        smoke_floors=dict(
            _COMMON_FLOORS | _SERVE_FLOORS, cells=16, build_cells=8, pool=512,
            closed_queries=2048, head_size=75,
        ),
    ),
    Workload(
        name="train-build-eval",
        stage=TrainStage,
        sizes=dict(
            _COMMON, dim=64, K=128, n_db=20_000, head_size=300, batch_size=64,
            setup_epochs=2, cells=64, build_cells=32, n_queries=4096,
            search_chunk=64, search_calls=4, latency_block=200, query_rate=400.0,
            limit_ms=2.0, closed_block=400, round_s=1.4,
        ),
        smoke_floors=dict(
            _COMMON_FLOORS, cells=8, build_cells=8, head_size=75, latency_block=24, closed_block=24,
        ),
    ),
)}
