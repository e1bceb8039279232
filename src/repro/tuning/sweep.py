"""The ``repro tune`` sweep: measure a config grid, calibrate the model.

One sweep reuses the bench harness's building blocks — the profile
datasets (:func:`repro.obs.bench.load_profile_dataset`), the residual
k-means codebook trainer shared with the stream phase, and its top-k
overlap recall — to measure every :class:`~repro.tuning.grid.GridPoint`:

- **latency**: mean single-query wall time through the real
  :class:`~repro.retrieval.engine.QueryEngine` (IVF-routed when the point
  has a coarse layer); points with a ``query_encoder`` are timed
  *encode-inclusive* — the query batch runs through the named encoder
  (full trained backbone, or the distilled light projection of
  :mod:`repro.encoding`) inside the timed region;
- **recall@k**: top-k overlap against the exact float oracle over the raw
  database vectors — or, for encoder points, against the exact oracle in
  the teacher's embedding space (the index is built over the
  teacher-embedded database, and both modes are scored against the
  *full*-embedding ground truth, so the light column directly shows its
  recall give-up);
- **memory**: the analytic *as-stored* byte accounting
  (:func:`repro.retrieval.costs.serving_memory_bytes`) — what the process
  actually allocates, not the paper's fractional-bit ideal.

The measured ``(config, latency)`` points then calibrate
:class:`~repro.retrieval.costs.CostModel` (seeded holdout split scores
generalisation before the final refit on all points), and everything is
written as a schema-v7 BENCH-style artifact under ``phases.tune`` so
``repro bench --compare`` and :func:`repro.obs.bench.format_summary`
render it like any other phase.
"""

from __future__ import annotations

import platform
import time

import numpy as np

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    load_profile_dataset,
    overlap_recall,
    train_residual_codebooks,
)
from repro.retrieval.costs import CostModel, serving_memory_bytes
from repro.retrieval.engine import QueryEngine
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.ivf import IVFIndex
from repro.retrieval.search import squared_distances
from repro.tuning.grid import GridPoint, default_grid, tiny_grid

__all__ = ["run_tune_sweep"]

#: Repeat each timed batch scan this many times and keep the best —
#: scheduling noise only ever inflates a wall-clock sample, so the min is
#: the stable estimator (same trick as ``measure_search_times``).
LATENCY_REPEATS = 7
#: Untimed full-batch calls before measuring (page/cache warmth).
WARMUP_CALLS = 2
#: Holdout share of the grid used to score the fitted model's
#: generalisation (the figure the nightly acceptance gate bounds).
HOLDOUT_FRACTION = 0.25


def _exact_topk(queries: np.ndarray, database: np.ndarray, k: int) -> np.ndarray:
    """The recall oracle: exact float squared-distance top-k ids."""
    distances = squared_distances(queries, database)
    return np.argsort(distances, kind="stable", axis=1)[:, :k]


def _measure_point(engine: QueryEngine, queries: np.ndarray, k: int,
                   exact_ids: np.ndarray, encode=None) -> tuple[float, float]:
    """(amortised per-query seconds, recall@k) of one configured engine.

    Latency is measured over the full query *batch* and divided by its
    size: a single vectorised scan amortises the per-call dispatch
    overhead, so the figure is dominated by the op counts the cost model
    prices — a per-call timing at CI scale would be mostly interpreter
    noise. ``docs/tuning.md`` states the convention next to the budget
    flags.

    ``encode`` (for query-encoder points) maps raw query features to
    embeddings *inside* the timed region, so the measured figure — and
    the ``encode_*`` cost columns fitted from it — include the encode.
    """
    def run():
        embedded = queries if encode is None else encode(queries)
        return engine.search_with_distances(embedded, k=k)

    ids = None
    for _ in range(WARMUP_CALLS):
        ids, _ = run()
    latency_s = float("inf")
    for _ in range(LATENCY_REPEATS):
        start = time.perf_counter()
        run()
        latency_s = min(
            latency_s, (time.perf_counter() - start) / len(queries)
        )
    return latency_s, overlap_recall(ids, exact_ids)


def _train_query_encoders(dataset, seed: int, modes) -> tuple:
    """One fast-config teacher (plus distilled student when asked).

    Encoder grid points share a single teacher per sweep: it defines the
    embedding space the encoder-point indexes live in, serves as the
    ``"full"`` query path, and is the distillation source of the
    ``"light"`` student. Returns ``(teacher, {mode: encoder})`` where each
    encoder exposes ``embed(features) -> embeddings``.
    """
    from repro.core.trainer import Trainer
    from repro.encoding import distill_query_encoder
    from repro.experiments.config import (
        default_loss_config,
        default_model_config,
        default_training_config,
    )

    trainer = Trainer(
        default_model_config(dataset),
        default_loss_config(dataset),
        default_training_config(dataset, fast=True),
        seed=seed,
    )
    teacher, _, _ = trainer.fit(dataset)
    teacher.eval()
    encoders = {"full": teacher}
    if "light" in modes:
        encoders["light"], _ = distill_query_encoder(teacher, dataset, seed=seed)
    return teacher, encoders


def run_tune_sweep(
    profile: str = "tiny",
    quick: bool = True,
    seed: int = 0,
    k: int = 10,
    grid: tuple[GridPoint, ...] | None = None,
) -> dict:
    """Measure the grid over one profile; returns the schema-v7 artifact.

    ``quick`` picks :func:`~repro.tuning.grid.tiny_grid` (the CI sweep);
    otherwise :func:`~repro.tuning.grid.default_grid`. An explicit
    ``grid`` overrides both.
    """
    if grid is None:
        grid = tiny_grid() if quick else default_grid()
    if not grid:
        raise ValueError("the tune grid is empty")
    sweep_start = time.perf_counter()
    dataset = load_profile_dataset(profile, seed)
    train_features = np.asarray(dataset.train.features, dtype=np.float64)
    database = np.asarray(dataset.database.features, dtype=np.float64)
    queries = np.asarray(dataset.query.features, dtype=np.float64)
    n_db, dim = database.shape
    k = min(k, n_db)
    exact_ids = _exact_topk(queries, database, k)

    # Query-encoder points live in the teacher's embedding space: one
    # teacher (and optional distilled student) per sweep, one embedded
    # database/oracle shared by every encoder point.
    encoder_modes = sorted(
        {p.query_encoder for p in grid if p.query_encoder != "none"}
    )
    encoders: dict = {}
    emb_train = emb_database = emb_exact_ids = None
    if encoder_modes:
        teacher, encoders = _train_query_encoders(dataset, seed, encoder_modes)
        emb_train = np.asarray(teacher.embed(train_features), dtype=np.float64)
        emb_database = np.asarray(teacher.embed(database), dtype=np.float64)
        emb_exact_ids = _exact_topk(
            np.asarray(teacher.embed(queries), dtype=np.float64),
            emb_database, k,
        )

    # One index per (M, K) and query space, one IVF layer per (M, K,
    # cells, space): grid points sharing geometry share the
    # expensive artefacts.
    indexes: dict[tuple, QuantizedIndex] = {}
    ivfs: dict[tuple, IVFIndex] = {}
    points: list[dict] = []
    configs = []
    latencies = []
    for point in grid:
        geometry = (point.num_codebooks, point.num_codewords)
        encoded = point.query_encoder != "none"
        if encoded:
            space_train, space_db = emb_train, emb_database
            space_dim = emb_database.shape[1]
            oracle = emb_exact_ids
            encode = encoders[point.query_encoder].embed
        else:
            space_train, space_db = train_features, database
            space_dim = dim
            oracle = exact_ids
            encode = None
        index_key = geometry + (encoded,)
        if index_key not in indexes:
            codebooks = train_residual_codebooks(
                space_train,
                point.num_codebooks,
                point.num_codewords,
                np.random.default_rng(seed),
            )
            indexes[index_key] = QuantizedIndex.build(codebooks, space_db)
        index = indexes[index_key]
        config = point.search_config(n_db, space_dim, k)
        if point.uses_ivf:
            ivf_key = index_key + (point.num_cells,)
            if ivf_key not in ivfs:
                ivfs[ivf_key] = IVFIndex.build(
                    index,
                    num_cells=point.num_cells,
                    nprobe=point.nprobe,
                    seed=seed,
                )
            engine = QueryEngine(
                index, ivf=ivfs[ivf_key], nprobe=point.nprobe
            )
        else:
            engine = QueryEngine(index)
        with engine:
            latency_s, recall = _measure_point(
                engine, queries, k, oracle, encode=encode
            )
        configs.append(config)
        latencies.append(latency_s)
        points.append({
            "config": {**point.as_dict(), "n_db": n_db, "dim": space_dim,
                       "code_dtype": config.code_dtype},
            "latency_ms": latency_s * 1e3,
            "recall": recall,
            "memory_mb": serving_memory_bytes(config) / 2**20,
        })

    model, report = CostModel.fit(
        configs, latencies, holdout_fraction=HOLDOUT_FRACTION, seed=seed
    )
    for entry, config in zip(points, configs):
        entry["latency_model_ms"] = model.predict(config) * 1e3

    tune = {
        "wall_time_s": time.perf_counter() - sweep_start,
        "k": k,
        "n_queries": len(queries),
        "grid_points": len(points),
        "points": points,
        "model": report.as_dict(),
    }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": seed,
        "quick": quick,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "profiles": {profile: {"phases": {"tune": tune}}},
    }
