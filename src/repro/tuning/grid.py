"""Config grids the ``repro tune`` sweep measures.

A grid is a tuple of :class:`GridPoint` — one serving configuration each,
spanning the knobs the calibrated cost model prices: codebook geometry
(``M``, ``K`` — and through ``K`` the compact code dtype), the exhaustive
engine's ``workers``/``num_shards``, the IVF coarse layer
(``num_cells``/``nprobe``), and the query-encoder mode
(full backbone vs the distilled light projection of
:mod:`repro.encoding`, measured with encode time included). Two stock
grids ship: :func:`tiny_grid` (the CI smoke sweep — finishes in seconds
on the ``tiny`` profile) and :func:`default_grid` (wider, includes a
K=512 point whose codes store as uint16, where the ideal and as-stored
byte accountings diverge).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.retrieval.costs import SearchConfig

__all__ = ["GridPoint", "default_grid", "tiny_grid"]


@dataclass(frozen=True)
class GridPoint:
    """One serving configuration of the tune sweep.

    ``num_cells == 0`` (with ``nprobe == 0``) is the exhaustive sharded
    engine; a positive pair routes queries through the IVF coarse layer.
    ``query_encoder != "none"`` measures the point with query-side
    encoding included: the sweep embeds the database with a trained
    teacher, encodes each query through the named path (full backbone or
    distilled light projection), and times encode + scan together.
    """

    num_codebooks: int
    num_codewords: int
    workers: int = 1
    num_shards: int = 1
    num_cells: int = 0
    nprobe: int = 0
    query_encoder: str = "none"

    @property
    def uses_ivf(self) -> bool:
        return self.num_cells > 0 and self.nprobe > 0

    def search_config(self, n_db: int, dim: int, k: int) -> SearchConfig:
        """The cost-model view of this point over a concrete corpus."""
        return SearchConfig(
            n_db=n_db,
            dim=dim,
            num_codebooks=self.num_codebooks,
            num_codewords=self.num_codewords,
            k=k,
            workers=self.workers,
            num_shards=self.num_shards,
            num_cells=self.num_cells,
            nprobe=self.nprobe,
            query_encoder=self.query_encoder,
        )

    def as_dict(self) -> dict:
        return asdict(self)


def _expand(pairs, *, cells: int, nprobes: tuple[int, ...], engine_shapes,
            encoders: tuple[str, ...] = ("full", "light")) -> tuple[GridPoint, ...]:
    """The stock grid shape: per (M, K), exhaustive engine shapes plus an
    IVF ``nprobe`` sweep and one encode-inclusive point per query-encoder
    mode (plain single-worker engine, so the light-vs-full delta is pure
    encode cost)."""
    points: list[GridPoint] = []
    for m, k in pairs:
        for workers, shards in engine_shapes:
            points.append(GridPoint(m, k, workers=workers, num_shards=shards))
        for nprobe in nprobes:
            points.append(GridPoint(m, k, num_cells=cells, nprobe=nprobe))
        for mode in encoders:
            points.append(GridPoint(m, k, query_encoder=mode))
    return tuple(points)


def tiny_grid() -> tuple[GridPoint, ...]:
    """The 20-point CI sweep (``tiny`` profile; K capped by its corpus).

    Deliberately over-determined — 15 fitted points against the model's 9
    feature columns even after the holdout split — so the CI fit-error
    gate measures the model, not an underdetermined solve.
    """
    return _expand(
        ((2, 8), (4, 16)),
        cells=8,
        nprobes=(1, 2, 3, 4, 6),
        engine_shapes=((1, 1), (1, 2), (2, 4)),
    )


def default_grid() -> tuple[GridPoint, ...]:
    """The wider sweep for real profiles.

    Includes K=512, whose codes store as uint16 — the point where the
    paper's fractional-bit byte accounting undercounts what the engine
    allocates, so memory budgets must be checked against the as-stored
    figures (:func:`repro.retrieval.costs.serving_memory_bytes`).
    """
    return _expand(
        ((4, 64), (8, 256), (4, 512)),
        cells=16,
        nprobes=(1, 4, 8),
        engine_shapes=((1, 1), (4, 8)),
    )
