"""One contract table for every search surface, in both call forms.

``QuantizedIndex``, ``QueryEngine`` (float32+rerank, float64, with an IVF
layer, and over a pair-fused layout both in-process and through the
shared-memory pool), ``IVFIndex`` and ``MutableIndex`` (bare and
engine-backed) — the four kinds over uint8 codes (K = 16) and again over
uint16 codes (K = 300) — all
run the same validate → LUT → scan → rerank → merge stages, so the same
inputs must give the same shapes, dtypes and exception types whichever
surface and whichever form — ``search_with_distances(queries, k, ...)`` or
``search(SearchRequest(...))`` — they arrive through. Where the path is
exact the answer must also equal the brute-force oracle:
``adc_distances`` plus a stable argsort.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.retrieval import (
    IVFIndex,
    MutableIndex,
    QuantizedIndex,
    QueryEngine,
    SearchRequest,
    ShardedIndex,
    adc_distances,
)

DIM = 8
CELLS = 6
FORMS = ("array", "request")
#: The four kinds of surface again over a K = 300 index: its code store,
#: layouts and segments are uint16 where the K = 16 ones are uint8.
WIDE = "-u16"
WIDE_K = 300
#: Surfaces with an IVF layer to probe; ``nprobe`` is an error elsewhere.
WITH_IVF = {"engine+ivf", "ivf", "mutable+engine"}
WITH_IVF |= {name + WIDE for name in WITH_IVF}
#: Of those, the ones whose engine can bypass the layer with ``nprobe=0``.
WITH_BYPASS = {"engine+ivf", "mutable+engine"}
WITH_BYPASS |= {name + WIDE for name in WITH_BYPASS}
SURFACES = (
    "index", "engine", "engine-f64", "engine+ivf", "ivf", "mutable",
    "mutable+engine", "engine-fused", "engine-fused-pool",
    "index" + WIDE, "engine+ivf" + WIDE, "ivf" + WIDE, "mutable+engine" + WIDE,
)
#: K of the fused surfaces' own index: ``4·K²`` = 64 rows already fuse.
FUSED_K = 4


def build_surfaces(rng, k_words):
    """Every surface over one index whose codes are ``k_words`` wide."""
    codebooks = rng.normal(size=(3, k_words, DIM))
    index = QuantizedIndex.build(codebooks, rng.normal(size=(150, DIM)))
    ivf = IVFIndex.build(index, num_cells=CELLS)
    return {
        "index": index,
        "engine": QueryEngine(index, parallel="never"),
        "engine-f64": QueryEngine(index, parallel="never", dtype=np.float64),
        "engine+ivf": QueryEngine(index, parallel="never", ivf=ivf),
        "ivf": ivf,
        "mutable": MutableIndex.from_index(index),
        "mutable+engine": MutableIndex.from_index(
            index, engine_kwargs={"ivf": CELLS, "parallel": "never"}
        ),
    }


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(14)
    surfaces = build_surfaces(rng, 16)
    assert surfaces["index"].codes.dtype == surfaces["ivf"].codes_t.dtype == np.uint8
    # A pair-fused layout needs an even M and 4·K² rows; K=4 keeps it cheap
    # (and 150 rows over 256 possible codes plant duplicate rows, i.e. ties).
    fused_index = QuantizedIndex.build(
        rng.normal(size=(4, FUSED_K, DIM)), rng.normal(size=(150, DIM))
    )
    surfaces["fused-index"] = fused_index
    surfaces["engine-fused"] = QueryEngine(fused_index, parallel="never")
    surfaces["engine-fused-pool"] = QueryEngine(
        fused_index, workers=2, num_shards=2, parallel="force"
    )
    for name in ("engine-fused", "engine-fused-pool"):
        assert surfaces[name].sharded.fused
        assert surfaces[name].sharded.codes_t.dtype == np.uint16
    wide = build_surfaces(rng, WIDE_K)
    surfaces.update((name + WIDE, surface) for name, surface in wide.items())
    assert wide["index"].codes.dtype == wide["ivf"].codes_t.dtype == np.uint16
    # Give the mutable surfaces something to merge and something to mask.
    extra = rng.normal(size=(20, DIM))
    for name in ("mutable", "mutable+engine", "mutable+engine" + WIDE):
        surfaces[name].add(extra)
        surfaces[name].remove(np.arange(0, 30, 3))
    yield surfaces, rng.normal(size=(7, DIM))
    for surface in surfaces.values():
        if hasattr(surface, "close"):
            surface.close()


def run(surface, form, queries, k, **hints):
    """``(ids, distances)`` through one call form."""
    if form == "array":
        return surface.search_with_distances(queries, k, **hints)
    result = surface.search(SearchRequest(queries, k=k, **hints))
    return result.indices, result.distances


def oracle(surfaces, name, queries, k):
    """Brute force over the rows a surface serves, tie-stable on id."""
    if name.startswith("mutable"):
        index, ids = surfaces[name].rebuild()
    else:
        index = surfaces[
            "fused-index" if "fused" in name
            else "index" + WIDE if name.endswith(WIDE) else "index"
        ]
        ids = np.arange(len(index))
    distances = adc_distances(
        queries, index.codes, index.codebooks, db_sq_norms=index.db_sq_norms
    )
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    rows = np.arange(len(queries))[:, None]
    return ids[order], distances[rows, order]


def searchable_rows(surface) -> int:
    return surface.n_db if hasattr(surface, "n_db") else len(surface)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", SURFACES)
class TestSurfaceContract:
    def check_shape(self, answer, n_queries, width):
        ids, distances = answer
        assert ids.shape == distances.shape == (n_queries, width)
        assert ids.dtype == np.int64 and distances.dtype == np.float64

    def test_empty_batch(self, world, name, form):
        surfaces, _ = world
        answer = run(surfaces[name], form, np.empty((0, DIM)), 5)
        self.check_shape(answer, 0, 5)

    def test_k_zero(self, world, name, form):
        surfaces, queries = world
        self.check_shape(run(surfaces[name], form, queries, 0), len(queries), 0)

    def test_k_beyond_the_database_clamps(self, world, name, form):
        surfaces, queries = world
        n = searchable_rows(surfaces[name])
        ids, distances = run(surfaces[name], form, queries, n + 50)
        self.check_shape((ids, distances), len(queries), n)
        assert all(len(set(row)) == n for row in ids.tolist())
        assert np.all(np.diff(distances, axis=1) >= 0)

    @pytest.mark.parametrize(
        "queries, k",
        [
            (np.zeros((2, DIM)), -1),
            (np.zeros((2, DIM + 1)), 5),
            (np.zeros((2, 3, DIM)), 5),
            (np.full((2, DIM), np.nan), 5),
            (np.full((2, DIM), np.inf), 5),
        ],
        ids=["negative-k", "wrong-dim", "three-d", "nan", "inf"],
    )
    def test_bad_input_is_a_value_error(self, world, name, form, queries, k):
        surfaces, _ = world
        with pytest.raises(ValueError):
            run(surfaces[name], form, queries, k)

    def test_nprobe_needs_an_ivf_layer(self, world, name, form):
        surfaces, queries = world
        if name in WITH_IVF:
            answer = run(surfaces[name], form, queries, 5, nprobe=2)
            self.check_shape(answer, len(queries), 5)
        else:
            with pytest.raises(ValueError, match="no IVF layer"):
                run(surfaces[name], form, queries, 5, nprobe=2)

    def test_nprobe_zero_is_the_exhaustive_answer(self, world, name, form):
        surfaces, queries = world
        if name not in WITH_BYPASS:
            with pytest.raises(ValueError, match="nprobe"):
                run(surfaces[name], form, queries, 5, nprobe=0)
            return
        ids, distances = run(surfaces[name], form, queries, 5, nprobe=0)
        want_ids, want_distances = oracle(surfaces, name, queries, 5)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(distances, want_distances)

    def test_exact_paths_equal_the_brute_force_oracle(self, world, name, form):
        """flat f32+rerank, flat f64, IVF at full probe, mutable vs rebuild."""
        surfaces, queries = world
        hints = {"nprobe": CELLS} if name in WITH_IVF else {}
        for k in (1, 10):
            ids, distances = run(surfaces[name], form, queries, k, **hints)
            want_ids, want_distances = oracle(surfaces, name, queries, k)
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(distances, want_distances)


@pytest.mark.parametrize("name", SURFACES)
def test_encoder_hint_is_refused(world, name):
    """Only a SearchRequest can carry one, and only the daemon serves it."""
    surfaces, queries = world
    with pytest.raises(ValueError, match="encoder"):
        surfaces[name].search(SearchRequest(queries, k=5, encoder="light"))


def test_pool_surface_was_served_by_the_pool(world):
    surfaces, queries = world
    engine = surfaces["engine-fused-pool"]
    engine.search_with_distances(queries, 5)
    assert engine.last_dispatch == "process-pool"


@pytest.mark.parametrize("rows, fused", [(4 * FUSED_K**2 - 1, False), (4 * FUSED_K**2, True)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_either_side_of_the_fusion_boundary(rows, fused, dtype):
    """``len >= 4·K²`` flips a float32 layout to joint codes; the answer
    does not move, and a float64 layout never fuses."""
    rng = np.random.default_rng(rows)
    index = QuantizedIndex.build(
        rng.normal(size=(4, FUSED_K, DIM)), rng.normal(size=(rows, DIM))
    )
    sharded = ShardedIndex(index, 1, scan_dtype=dtype)
    assert sharded.fused == (fused and dtype is np.float32)
    assert len(sharded.codes_t) == (2 if sharded.fused else 4)
    queries = rng.normal(size=(5, DIM))
    with QueryEngine(sharded, parallel="never") as engine:
        ids, distances = engine.search_with_distances(queries, 10)
    want = adc_distances(
        queries, index.codes, index.codebooks, db_sq_norms=index.db_sq_norms
    )
    order = np.argsort(want, axis=1, kind="stable")[:, :10]
    assert np.array_equal(ids, order)
    assert np.array_equal(distances, want[np.arange(5)[:, None], order])
