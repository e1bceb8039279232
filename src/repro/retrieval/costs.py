"""Space and inference cost model of §IV, plus measured timings.

§IV-A: storing a quantized database costs ``4·K·M·d`` bytes of codebooks,
``n·M·log2(K)/8`` bytes of codeword ids, and ``4·n`` bytes of stored norms,
versus ``4·n·d`` bytes for raw float32 vectors — a compression ratio of
roughly ``32d / (M·log2 K)`` when ``n ≫ K·M·d``.

§IV-B: ADC needs ``O(d·M·K)`` multiply-adds to build a query's lookup
tables and ``O(n·M)`` adds to score the database, versus ``O(n·d)``
multiply-adds for exhaustive search.

Fig. 7 plots both the theoretical and measured speedup/compression ratios
as the database grows; :func:`efficiency_sweep` reproduces that experiment.

Two byte accountings coexist. The paper's *ideal* accounting charges
``M·log2(K)/8`` bytes per item — fractional bits, as if codes were
entropy-packed. The engine actually stores one unsigned integer per
codebook (:func:`repro.retrieval.adc.compact_code_dtype`: uint8 for
K ≤ 256, uint16 up to 65536), so the *as-stored* accounting charges
``M · itemsize`` bytes per item and the two disagree for any K that is
not a power of 256. :class:`StorageCost` reports both; budget decisions
(``repro tune --memory-mb``) must use the as-stored figures.

The calibrated model (:class:`CostModel`) extends the §IV-B op counts to
the serving stack's real knobs — shards, workers, IVF ``nprobe``, LUT
dtype — and fits one least-squares constant per term to measured
latencies, so ``repro tune`` can predict configurations it never ran.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.retrieval.adc import (
    RERANK_PAD,
    adc_distances,
    compact_code_dtype,
    encode_nearest,
    fuses_pairs,
    reconstruct,
)
from repro.retrieval.engine import MIN_PARALLEL_CODES
from repro.retrieval.search import squared_distances

FLOAT_BYTES = 4  # the paper counts float32 storage
#: Bytes per stored IVF id (int64) and coarse-centroid value (float64).
_ID_BYTES = 8
_CENTROID_BYTES = 8


@dataclass(frozen=True)
class StorageCost:
    """Byte-level storage accounting for one database.

    ``code_bytes`` is the paper's ideal fractional-bit figure
    (``n·M·log2(K)/8``); ``code_bytes_stored`` is what the engine actually
    allocates (``n·M·itemsize`` of the compact code dtype). They agree
    exactly when K is a power of 256 (uint8 holds 8 bits, uint16 16) and
    the ideal figure undercounts otherwise — e.g. K=512 packs 9 bits of
    information into a 16-bit lane.
    """

    codebook_bytes: float
    code_bytes: float
    norm_bytes: float
    continuous_bytes: float
    code_bytes_stored: float = 0.0

    @property
    def quantized_bytes(self) -> float:
        return self.codebook_bytes + self.code_bytes + self.norm_bytes

    @property
    def compression_ratio(self) -> float:
        return self.continuous_bytes / self.quantized_bytes

    @property
    def quantized_bytes_stored(self) -> float:
        """Bytes actually allocated: codebooks + compact codes + norms."""
        return self.codebook_bytes + self.code_bytes_stored + self.norm_bytes

    @property
    def compression_ratio_stored(self) -> float:
        """Compression against raw float32, with as-stored code bytes."""
        return self.continuous_bytes / self.quantized_bytes_stored


def stored_code_bytes_per_item(num_codebooks: int, num_codewords: int) -> int:
    """Bytes one item's codes occupy as stored (``M · dtype itemsize``)."""
    return num_codebooks * compact_code_dtype(num_codewords).itemsize


def storage_cost(n_db: int, dim: int, num_codebooks: int, num_codewords: int) -> StorageCost:
    """§IV-A byte accounting: ``4KMd + n·M·log2(K)/8 + 4n`` vs ``4nd``.

    The returned :class:`StorageCost` also carries the as-stored code
    bytes (``n·M·itemsize``) — see the class docstring for when the two
    accountings diverge.
    """
    if min(n_db, dim, num_codebooks, num_codewords) < 1:
        raise ValueError("all size arguments must be positive")
    bits_per_code = math.log2(num_codewords)
    return StorageCost(
        codebook_bytes=FLOAT_BYTES * num_codewords * num_codebooks * dim,
        code_bytes=n_db * num_codebooks * bits_per_code / 8.0,
        norm_bytes=FLOAT_BYTES * n_db,
        continuous_bytes=FLOAT_BYTES * n_db * dim,
        code_bytes_stored=float(
            n_db * stored_code_bytes_per_item(num_codebooks, num_codewords)
        ),
    )


def asymptotic_compression_ratio(
    dim: int, num_codebooks: int, num_codewords: int, *, stored: bool = False
) -> float:
    """Large-``n`` limit ``4d / (M·log2(K)/8 + 4)`` of the compression ratio.

    With ``stored=True`` the per-item code bytes use the compact dtype's
    itemsize instead of fractional bits — the ratio the deployed index
    actually achieves.
    """
    if stored:
        code_bytes = float(stored_code_bytes_per_item(num_codebooks, num_codewords))
    else:
        code_bytes = num_codebooks * math.log2(num_codewords) / 8.0
    return FLOAT_BYTES * dim / (code_bytes + FLOAT_BYTES)


def theoretical_speedup(n_db: int, dim: int, num_codebooks: int, num_codewords: int) -> float:
    """Operation-count ratio of exhaustive search to ADC (§IV-B).

    Exhaustive: ``n·d`` multiply-adds per query. ADC: ``d·M·K`` for the
    lookup tables plus ``n·M`` table additions.
    """
    exhaustive_ops = n_db * dim
    adc_ops = dim * num_codebooks * num_codewords + n_db * num_codebooks
    return exhaustive_ops / adc_ops


@dataclass
class EfficiencyMeasurement:
    """One point of the Fig. 7 sweep."""

    n_db: int
    fraction: float
    measured_speedup: float
    theoretical_speedup: float
    measured_compression: float
    theoretical_compression: float


def measure_search_times(
    queries: np.ndarray,
    database: np.ndarray,
    codebooks: np.ndarray,
    codes: np.ndarray,
    repeats: int = 3,
) -> tuple[float, float]:
    """Wall-clock (exhaustive_seconds, adc_seconds), best of ``repeats``."""
    db_sq_norms = (reconstruct(codes, codebooks) ** 2).sum(axis=1)
    exhaustive_best = adc_best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        squared_distances(queries, database)
        exhaustive_best = min(exhaustive_best, time.perf_counter() - start)
        start = time.perf_counter()
        adc_distances(queries, codes, codebooks, db_sq_norms=db_sq_norms)
        adc_best = min(adc_best, time.perf_counter() - start)
    return exhaustive_best, adc_best


def efficiency_sweep(
    queries: np.ndarray,
    database: np.ndarray,
    codebooks: np.ndarray,
    fractions: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 1.0),
    repeats: int = 3,
) -> list[EfficiencyMeasurement]:
    """Reproduce Fig. 7: ratios as functions of the database fraction.

    The measured compression ratio uses the exact byte accounting of
    :func:`storage_cost`; the measured speedup is a wall-clock ratio, which
    at simulator scale is noisy but must reproduce the figure's shape
    (ratios grow with database size; tiny databases gain nothing).
    """
    codebooks = np.asarray(codebooks, dtype=np.float64)
    m, k, dim = codebooks.shape
    n_total = len(database)
    results = []
    for fraction in sorted(fractions):
        n_db = max(int(round(n_total * fraction)), 1)
        subset = database[:n_db]
        codes = encode_nearest(subset, codebooks, residual=True)
        exhaustive_s, adc_s = measure_search_times(
            queries, subset, codebooks, codes, repeats=repeats
        )
        cost = storage_cost(n_db, dim, m, k)
        results.append(
            EfficiencyMeasurement(
                n_db=n_db,
                fraction=fraction,
                measured_speedup=exhaustive_s / max(adc_s, 1e-12),
                theoretical_speedup=theoretical_speedup(n_db, dim, m, k),
                measured_compression=cost.compression_ratio,
                theoretical_compression=cost.compression_ratio,
            )
        )
    return results


# ----------------------------------------------------------------------
# Calibrated serving cost model: fit()/predict() over real configurations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """One serving configuration the calibrated cost model prices.

    ``num_cells == 0`` (or ``nprobe == 0``) means no IVF layer — the
    exhaustive sharded engine scans everything.
    ``query_encoder`` prices the query-side encode before the scan:
    ``"none"`` (queries arrive as embeddings), ``"full"`` (the trained
    backbone + DSQ assignment pass), or ``"light"`` (the distilled
    affine projection of :mod:`repro.encoding`).
    """

    n_db: int
    dim: int
    num_codebooks: int
    num_codewords: int
    k: int = 10
    workers: int = 1
    num_shards: int = 1
    num_cells: int = 0
    nprobe: int = 0
    query_encoder: str = "none"

    def __post_init__(self) -> None:
        if min(self.n_db, self.dim, self.num_codebooks, self.num_codewords) < 1:
            raise ValueError("n_db, dim, M, and K must all be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if min(self.workers, self.num_shards) < 1:
            raise ValueError("workers and num_shards must be at least 1")
        if min(self.num_cells, self.nprobe) < 0:
            raise ValueError("num_cells and nprobe must be non-negative")
        if self.query_encoder not in ("none", "full", "light"):
            raise ValueError(
                "query_encoder must be 'none', 'full', or 'light'"
            )

    @property
    def uses_ivf(self) -> bool:
        return self.num_cells > 0 and self.nprobe > 0

    @property
    def code_dtype(self) -> str:
        """The compact dtype codes are stored as (drives memory + scan)."""
        return str(compact_code_dtype(self.num_codewords))

    @property
    def candidates(self) -> float:
        """Expected database rows scored per query."""
        if not self.uses_ivf:
            return float(self.n_db)
        probed = min(self.nprobe, self.num_cells)
        return self.n_db * probed / self.num_cells

    @property
    def fused(self) -> bool:
        """Whether the exhaustive engine's float32 layout is pair-fused.

        The same :func:`~repro.retrieval.adc.fuses_pairs` call
        :class:`~repro.retrieval.engine.ShardedIndex` makes; an IVF scan
        gathers per codebook whatever the flat layout is.
        """
        return not self.uses_ivf and fuses_pairs(
            "float32", self.num_codebooks, self.num_codewords, self.n_db
        )

    def effective_workers(self, n_queries: int = 1) -> int:
        """Pool width the exhaustive engine would actually dispatch with.

        Mirrors :meth:`QueryEngine.effective_workers` plus the
        ``parallel="auto"`` work threshold: below
        :data:`~repro.retrieval.engine.MIN_PARALLEL_CODES` of scan work
        the engine stays in-process and extra workers buy nothing. The
        IVF path is always in-process.
        """
        if self.uses_ivf:
            return 1
        width = max(1, min(self.workers, os.cpu_count() or 1, self.num_shards))
        if width < 2:
            return 1
        work = n_queries * self.n_db * self.num_codebooks
        return width if work >= MIN_PARALLEL_CODES else 1


#: Per-term op counts of :func:`cost_features`, in column order. The two
#: ``encode_*`` columns were added with the query-encoder axis (bench
#: schema v7); :func:`repro.tuning.recommend.model_from_report` defaults
#: them to 0 when rebuilding a model from an older artifact.
COST_FEATURE_NAMES = (
    "constant",
    "lut_ops",
    "coarse_ops",
    "probe_cells",
    "scan_float32",
    "merge_ops",
    "rerank_ops",
    "encode_light",
    "encode_full",
)


def cost_features(config: SearchConfig, n_queries: int = 1) -> np.ndarray:
    """Per-query analytic op counts for one configuration.

    Extends the §IV-B count (``d·M·K`` LUT build + ``n·M`` scan adds)
    with the serving stack's real terms: the IVF coarse scan
    (``num_cells·d``), the per-probed-cell walk (``min(nprobe, cells)``
    inverted lists gathered per query — fixed bookkeeping per cell that
    no op-count term covers), pruned candidates (``nprobe/num_cells`` of
    the database), the gather passes the layout performs per candidate
    (``M``, or ``M/2`` over a pair-fused flat layout, whose ``M/2·K²``
    table-fusion adds join the LUT column),
    worker-pool division of the scan, per-shard top-k merge, the float64
    rerank, and the query-side encode. The encode terms are per-mode
    columns (the fitted constant absorbs the input-feature width, which
    is fixed within a sweep): the light encoder is one ``d x d``-scale
    GEMM row, the full path adds the backbone stack plus the DSQ
    assignment scoring (``d·M·K``).
    """
    m = config.num_codebooks
    fused = config.fused
    passes = m // 2 if fused else m
    scan_lookups = config.candidates * passes / config.effective_workers(n_queries)
    shards = 1 if config.uses_ivf else min(config.num_shards, config.n_db)
    encode_gemm = float(config.dim * config.dim)
    lut_ops = config.dim * m * config.num_codewords
    if fused:
        lut_ops += passes * config.num_codewords**2
    return np.array([
        1.0,
        float(lut_ops),
        float(config.num_cells * config.dim) if config.uses_ivf else 0.0,
        float(min(config.nprobe, config.num_cells)) if config.uses_ivf else 0.0,
        scan_lookups,
        float(shards * (config.k + RERANK_PAD)),
        float((config.k + RERANK_PAD) * config.dim),
        encode_gemm if config.query_encoder == "light" else 0.0,
        encode_gemm + float(config.dim * m * config.num_codewords)
        if config.query_encoder == "full"
        else 0.0,
    ])


@dataclass(frozen=True)
class CostModelReport:
    """Fit quality of one :meth:`CostModel.fit` call.

    Relative errors are ``|predicted - measured| / measured`` per point;
    the holdout figures come from a model fitted *without* those points
    (absent when ``holdout_fraction`` was 0 or the grid is too small).
    """

    coefficients: dict[str, float]
    n_points: int
    mean_rel_error: float
    max_rel_error: float
    holdout_n: int = 0
    holdout_mean_rel_error: float | None = None
    holdout_max_rel_error: float | None = None

    def as_dict(self) -> dict:
        return {
            "coefficients": dict(self.coefficients),
            "n_points": self.n_points,
            "mean_rel_error": self.mean_rel_error,
            "max_rel_error": self.max_rel_error,
            "holdout": {
                "n": self.holdout_n,
                "mean_rel_error": self.holdout_mean_rel_error,
                "max_rel_error": self.holdout_max_rel_error,
            },
        }


class CostModel:
    """The analytic op-count model with fitted per-term constants.

    ``fit`` solves a *relative* least-squares problem — each row of the
    design matrix is divided by its measured latency, so minimising the
    residual minimises relative (not absolute) prediction error. That is
    the right objective here: the grid spans microsecond IVF probes and
    millisecond exhaustive scans, and a tuner cares about percentage
    error at every scale equally.
    """

    def __init__(self, coefficients: np.ndarray) -> None:
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.shape != (len(COST_FEATURE_NAMES),):
            raise ValueError(
                f"expected {len(COST_FEATURE_NAMES)} coefficients, "
                f"got shape {coefficients.shape}"
            )
        self.coefficients = coefficients

    @property
    def named_coefficients(self) -> dict[str, float]:
        return {
            name: float(value)
            for name, value in zip(COST_FEATURE_NAMES, self.coefficients)
        }

    def predict(self, config: SearchConfig, n_queries: int = 1) -> float:
        """Predicted per-query latency in seconds (floored at 1 ns)."""
        raw = float(cost_features(config, n_queries) @ self.coefficients)
        return max(raw, 1e-9)

    @classmethod
    def _solve(cls, configs, latencies, n_queries: int) -> "CostModel":
        rows = np.stack([cost_features(c, n_queries) for c in configs])
        y = np.asarray(latencies, dtype=np.float64)
        # Relative weighting: X_i / y_i · beta ≈ 1.
        design = rows / y[:, None]
        target = np.ones(len(y))
        beta, *_ = np.linalg.lstsq(design, target, rcond=None)
        return cls(beta)

    @classmethod
    def fit(
        cls,
        configs: list[SearchConfig] | tuple[SearchConfig, ...],
        latencies,
        *,
        n_queries: int = 1,
        holdout_fraction: float = 0.0,
        seed: int = 0,
    ) -> tuple["CostModel", CostModelReport]:
        """Calibrate the model to ``(config, measured latency)`` points.

        With ``holdout_fraction`` > 0, a seeded subset of the grid is
        held out, a model fitted on the remainder is scored on it (the
        generalisation figure ``repro tune`` gates on), and the returned
        model is then refitted on *all* points.
        """
        configs = list(configs)
        latencies = np.asarray(latencies, dtype=np.float64)
        if len(configs) != len(latencies):
            raise ValueError("one latency per config is required")
        if len(configs) < 2:
            raise ValueError("need at least 2 measured points to fit")
        if not np.all(latencies > 0):
            raise ValueError("latencies must be positive")
        if not 0.0 <= holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")

        holdout_n = 0
        holdout_mean = holdout_max = None
        n_holdout = int(round(holdout_fraction * len(configs)))
        if n_holdout >= 1 and len(configs) - n_holdout >= len(COST_FEATURE_NAMES):
            order = np.random.default_rng(seed).permutation(len(configs))
            held, kept = order[:n_holdout], order[n_holdout:]
            partial = cls._solve(
                [configs[i] for i in kept], latencies[kept], n_queries
            )
            errors = np.array([
                abs(partial.predict(configs[i], n_queries) - latencies[i])
                / latencies[i]
                for i in held
            ])
            holdout_n = int(n_holdout)
            holdout_mean = float(errors.mean())
            holdout_max = float(errors.max())

        model = cls._solve(configs, latencies, n_queries)
        rel = np.array([
            abs(model.predict(config, n_queries) - latency) / latency
            for config, latency in zip(configs, latencies)
        ])
        report = CostModelReport(
            coefficients=model.named_coefficients,
            n_points=len(configs),
            mean_rel_error=float(rel.mean()),
            max_rel_error=float(rel.max()),
            holdout_n=holdout_n,
            holdout_mean_rel_error=holdout_mean,
            holdout_max_rel_error=holdout_max,
        )
        return model, report


def serving_memory_bytes(config: SearchConfig) -> float:
    """As-stored bytes the serving stack holds for one configuration.

    Codebooks + the engine's compact transposed codes + float32 norms,
    plus — when an IVF layer is attached — its reordered code copy,
    int64 id map, float32 norms, and float64 coarse centroids (matching
    :attr:`IVFIndex.nbytes`). This is the figure ``repro tune`` checks
    ``--memory-mb`` budgets against; the ideal fractional-bit accounting
    would undercount any K that is not a power of 256.
    """
    cost = storage_cost(
        config.n_db, config.dim, config.num_codebooks, config.num_codewords
    )
    total = cost.quantized_bytes_stored
    if config.num_cells > 0:
        total += (
            cost.code_bytes_stored  # the IVF layer's reordered code copy
            + _ID_BYTES * config.n_db
            + FLOAT_BYTES * config.n_db
            + _CENTROID_BYTES * config.num_cells * config.dim
        )
    return float(total)
