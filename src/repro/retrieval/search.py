"""Search primitives and the unified search request/result types.

Two things live here:

1. Exhaustive nearest-neighbour search over continuous representations —
   the uncompressed reference point every quantizer is compared against:
   it defines both the accuracy ceiling and the inference-cost baseline
   (``O(n_db · d)`` per query, §IV-B). With observability enabled
   (:mod:`repro.obs`), :func:`exhaustive_search` times each call
   (``search.exhaustive.time_s``) so ADC speedups can be read straight off
   a metrics export instead of re-deriving them.
2. :class:`SearchRequest` / :class:`SearchResult` — the one request shape
   every search surface accepts (:meth:`QuantizedIndex.search`,
   :meth:`QueryEngine.search`, :meth:`IVFIndex.search`,
   :meth:`MutableIndex.search`, and the serving daemon) — together with the
   two query-path stages that are about requests rather than arithmetic:
   :func:`validate_query_batch`, the one validation site, and
   :class:`SearchSurface`, the one ``search``/``serve`` front over each
   surface's ``search_with_distances``. The numerical stages live in
   :mod:`repro.retrieval.adc`.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names


@dataclass(frozen=True)
class SearchRequest:
    """One search call, as data: the canonical way to ask for neighbours.

    Every search surface accepts a ``SearchRequest`` as its first argument
    and then returns a :class:`SearchResult`. Hints a given surface cannot
    honour are errors, not silent no-ops: ``nprobe`` without an IVF layer
    raises ``ValueError`` everywhere.

    Attributes
    ----------
    queries:
        ``(n_q, d)`` query batch; a single ``(d,)`` vector is promoted to a
        one-row batch.
    k:
        Neighbours per query; ``None`` asks for the full ranking (refused
        by pruned IVF paths, which cannot produce it).
    nprobe:
        IVF cells probed per query. Only valid when the serving surface has
        an IVF layer attached; ``0`` bypasses the layer for an exact scan.
    rerank:
        Override the engine's float64 rerank setting for this call
        (``None`` keeps the surface's default).
    deadline_s:
        End-to-end budget hint in seconds. Honoured by the serving daemon
        (it replaces the configured request timeout); synchronous in-process
        scans ignore it.
    engine:
        Engine hint for :meth:`QuantizedIndex.search`: a ``QueryEngine`` or
        ``IVFIndex`` built over the same index to delegate the scan to.
    encoder:
        Query-encoder selection for surfaces that accept *raw features*
        instead of embeddings (the serving daemon): ``"full"`` runs the
        trained backbone + DSQ stack, ``"light"`` the distilled
        :class:`~repro.encoding.LightQueryEncoder` fast path. ``None``
        (default) means ``queries`` are already embeddings. Surfaces
        without the named encoder raise ``ValueError`` — a hint is never a
        silent no-op.
    """

    queries: np.ndarray
    k: int | None = None
    nprobe: int | None = None
    rerank: bool | None = None
    deadline_s: float | None = None
    engine: object | None = None
    encoder: str | None = None

    def __post_init__(self) -> None:
        queries = np.asarray(self.queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        queries, _ = validate_query_batch(queries, self.k, self.nprobe)
        object.__setattr__(self, "queries", queries)
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.encoder is not None and self.encoder not in ("full", "light"):
            raise ValueError(
                "encoder must be 'full', 'light', or None (embeddings), "
                f"got {self.encoder!r}"
            )

    @property
    def n_queries(self) -> int:
        return self.queries.shape[0]

    @property
    def dim(self) -> int:
        return self.queries.shape[1]


@dataclass(frozen=True)
class SearchResult:
    """Ranked neighbours for one :class:`SearchRequest`.

    ``indices``/``distances`` are ``(n_q, width)`` with ``width = min(k,
    candidates)``; ``source`` names the path that served the scan (e.g.
    ``"serial-adc"``, ``"in-process"``, ``"ivf"``, ``"mutable"``).
    """

    indices: np.ndarray
    distances: np.ndarray
    k: int | None = None
    source: str = ""
    elapsed_s: float = 0.0
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def width(self) -> int:
        """Neighbours actually returned per query."""
        return self.indices.shape[1]


def validate_query_batch(
    queries: np.ndarray,
    k: int | None = None,
    nprobe: int | None = None,
    *,
    dim: int | None = None,
    n_db: int | None = None,
    has_ivf: bool = True,
    pruned: bool = False,
) -> tuple[np.ndarray, int | None]:
    """The one validation site of the query path.

    Returns ``(queries, k_eff)``: the batch as float64 and ``k`` clamped to
    the ``n_db`` searchable rows (``k=None``, the full ranking, clamps to
    ``n_db``). Raises ``ValueError`` for a batch that is not ``(n, dim)``,
    holds NaN/inf or a row whose float64 ``‖q‖²`` overflows (one such row
    would turn a whole micro-batch's distances non-finite), a ``k`` or
    ``nprobe`` that is not a non-negative integer (NumPy integers count;
    bools and floats such as ``2.5`` do not), any ``nprobe`` on a surface
    with no IVF layer, or ``k=None`` on a ``pruned`` (IVF-probed) scan,
    which cannot produce the full ranking. ``SearchRequest`` validates
    with the context it has (no ``dim``/``n_db``; ``k_eff`` is then
    ``k``); every surface's ``search_with_distances`` supplies the rest.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or (
        dim is not None and queries.size and queries.shape[1] != dim
    ):
        raise ValueError(
            f"queries must be (n, {'d' if dim is None else dim}), "
            f"got shape {queries.shape}"
        )
    # A finite float64 ‖q‖² — the term the scan adds to every distance —
    # also means finite entries: NaN and inf propagate into it. A finite sum
    # over the batch settles every row at once; only when it is not are the
    # rows checked one by one. (vdot and einsum, as they raise no overflow
    # warning for the rows this exists to refuse.)
    if not math.isfinite(np.vdot(queries, queries)) and not np.isfinite(
        np.einsum("ij,ij->i", queries, queries)
    ).all():
        raise ValueError(
            "queries must be finite with a finite squared norm (found NaN, "
            "inf, or a row whose ‖q‖² overflows float64)"
        )
    if k is not None:
        k = _integer(k, "k")
        if k < 0:
            raise ValueError("k must be non-negative (or None for the full ranking)")
    if nprobe is not None:
        if _integer(nprobe, "nprobe") < 0:
            raise ValueError("nprobe must be non-negative")
        if not has_ivf:
            raise ValueError(
                "nprobe requires an engine with an IVF layer attached, and "
                "this surface has no IVF layer (use a QueryEngine built "
                "with ivf=..., an IVFIndex, or a MutableIndex with "
                "engine_kwargs={'ivf': ...})"
            )
    if k is None and pruned:
        raise ValueError(
            "IVF search prunes the database and cannot produce the full "
            "ranking; pass an explicit k (or use the exhaustive "
            "QueryEngine path)"
        )
    if n_db is None:
        return queries, k
    return queries, n_db if k is None else min(k, n_db)


def _integer(value, name: str) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integer."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def empty_answer(n_queries: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(indices, distances)`` of a search with nothing to rank."""
    return (
        np.empty((n_queries, width), dtype=np.int64),
        np.empty((n_queries, width), dtype=np.float64),
    )


class SearchSurface:
    """``search``/``serve`` over a subclass's ``search_with_distances``.

    ``search_with_distances(queries, k, *, rerank=None, nprobe=None)`` is
    each surface's single array-level entry (and the replica protocol);
    everything request-shaped — the two call forms, the hint checks, the
    timing, the :class:`SearchResult` — is here once.
    """

    #: ``SearchResult.source``: the path that served the latest scan.
    last_dispatch = ""

    def search(
        self, queries: "np.ndarray | SearchRequest", k: int | None = None
    ) -> "np.ndarray | SearchResult":
        """Ranked ids per query, tie-stable on (distance, id).

        Takes a :class:`SearchRequest` and returns a :class:`SearchResult`
        (ids *and* distances), or a query array plus ``k`` and returns the
        bare ``(n_q, min(k, n))`` id array.
        """
        if isinstance(queries, SearchRequest):
            if k is not None:
                raise TypeError(
                    "pass search parameters inside the SearchRequest, not "
                    "alongside it"
                )
            return self.serve(queries)
        return self.serve(SearchRequest(queries, k=k)).indices

    def serve(self, request: SearchRequest) -> SearchResult:
        """Serve one :class:`SearchRequest` through this surface."""
        if request.engine is not None and request.engine is not self:
            raise ValueError(
                "request carries an engine hint for a different engine"
            )
        if request.encoder is not None:
            raise ValueError(
                f"{type(self).__name__} scans embeddings; encoder hints are "
                "served by the serving daemon (repro.serving)"
            )
        start = time.perf_counter()
        indices, distances = self.search_with_distances(
            request.queries,
            request.k,
            rerank=request.rerank,
            nprobe=request.nprobe,
        )
        return SearchResult(
            indices=indices,
            distances=distances,
            k=request.k,
            source=self.last_dispatch,
            elapsed_s=time.perf_counter() - start,
        )


def squared_distances(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """``(n_q, n_db)`` squared Euclidean distance matrix."""
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    q_sq = (queries**2).sum(axis=1, keepdims=True)
    db_sq = (database**2).sum(axis=1)
    d2 = q_sq + db_sq[None, :] - 2.0 * queries @ database.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def hamming_distances(query_codes: np.ndarray, db_codes: np.ndarray) -> np.ndarray:
    """``(n_q, n_db)`` Hamming distances between ±1 binary codes.

    For codes in {-1, +1}^b, ``hamming = (b - q·x) / 2``; used by every
    binarized-hash baseline.
    """
    query_codes = np.asarray(query_codes, dtype=np.float64)
    db_codes = np.asarray(db_codes, dtype=np.float64)
    bits = query_codes.shape[1]
    return (bits - query_codes @ db_codes.T) / 2.0


#: Strided lanes of the hierarchical top-k: a row is read as ``LANES`` slabs
#: of ``w // LANES`` columns and group ``g`` is column ``g`` of every slab.
TOPK_LANES = 64

#: Narrowest row (in groups per lane) the hierarchical path takes: below it
#: the per-row bookkeeping costs more than one ``argpartition`` of the row.
TOPK_MIN_GROUPS = 128


def _smallest_stable(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest of a 1-D array, in stable order.

    Everything strictly below the k-th value plus the lowest-index entries
    tied with it: a partition and two masks, and a sort of ``k`` entries —
    never of the row, however many entries share the k-th value.
    """
    kth = np.partition(values, k - 1)[k - 1]
    less = np.flatnonzero(values < kth)
    ties = np.flatnonzero(values == kth)[: k - len(less)]
    pick = np.concatenate([less, ties])
    return pick[np.argsort(values[pick], kind="stable")]


def _topk_hierarchical(distances: np.ndarray, k: int):
    """Tie-stable top-k of wide rows through strided group minima.

    Group ``g`` holds columns ``g, g + ng, g + 2·ng, …`` (``ng = w //
    TOPK_LANES``), so the minima are an elementwise minimum of contiguous
    slabs. At least ``k`` groups have a minimum ``<= tau``, the k-th
    smallest group minimum, hence at least ``k`` entries are ``<= tau`` and
    the k-th smallest entry is too: every entry of the answer — ties with
    the k-th value included — lies in a group whose minimum is ``<= tau``
    (or in the ``w % TOPK_LANES`` tail columns). Those few groups are
    gathered in ascending column order and reduced by
    :func:`_smallest_stable`. Returns ``None`` when a row holds NaN, which
    a minimum cannot order.
    """
    n, w = distances.shape
    ng = w // TOPK_LANES
    main = ng * TOPK_LANES
    group_min = distances[:, :main].reshape(n, TOPK_LANES, ng).min(axis=1)
    tail = np.arange(main, w)
    if np.isnan(group_min).any() or np.isnan(distances[:, main:]).any():
        return None
    tau = np.partition(group_min, k - 1, axis=1)[:, k - 1]
    lanes = (np.arange(TOPK_LANES) * ng)[:, None]
    indices = np.empty((n, k), dtype=np.int64)
    for r in range(n):
        row = distances[r]
        cols = (np.flatnonzero(group_min[r] <= tau[r]) + lanes).ravel()
        cols = np.concatenate([cols, tail])
        cols = cols[row[cols] <= tau[r]]
        indices[r] = cols[_smallest_stable(row[cols], k)]
    return indices, distances[np.arange(n)[:, None], indices]


def topk_tie_stable(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row indices and values of the ``k`` smallest entries, tie-stable.

    Ordering is lexicographic on ``(distance, column index)`` — the order a
    stable ascending argsort produces — so duplicated distances always
    resolve to the lower index, independent of how the selection was
    partitioned. Returns ``(indices, values)`` of shape ``(n, min(k, w))``.

    Wide rows (an ADC scan's) go through :func:`_topk_hierarchical`; narrow
    ones through one ``argpartition``, whose arbitrary pick among entries
    tied with the k-th value is repaired per row by
    :func:`_smallest_stable`. Neither sorts more than ``k`` entries of a
    row.
    """
    distances = np.asarray(distances)
    n, w = distances.shape
    k = max(0, min(k, w))
    if k == 0:
        return (np.empty((n, 0), dtype=np.int64),
                np.empty((n, 0), dtype=distances.dtype))
    rows = np.arange(n)[:, None]
    if k == w:
        order = np.argsort(distances, axis=1, kind="stable")
        return order, distances[rows, order]
    if w // TOPK_LANES >= max(2 * k, TOPK_MIN_GROUPS):
        found = _topk_hierarchical(distances, k)
        if found is not None:
            return found
    part = np.argpartition(distances, k - 1, axis=1)[:, :k]
    vals = distances[rows, part]
    order = np.lexsort((part, vals), axis=-1)
    part = part[rows, order].astype(np.int64, copy=False)
    vals = vals[rows, order]
    boundary = vals[:, -1:]
    in_row = (distances == boundary).sum(axis=1)
    in_sel = (vals == boundary).sum(axis=1)
    for r in np.nonzero(in_row > in_sel)[0]:
        part[r] = _smallest_stable(distances[r], k)
        vals[r] = distances[r, part[r]]
    return part, vals


def rank_by_distance(distances: np.ndarray, k: int | None = None) -> np.ndarray:
    """Ranked database indices (ascending distance), optionally top-k.

    Uses ``argpartition`` for the top-k case so large databases don't pay a
    full sort per query, with tie-stable ordering — duplicated distances
    resolve to the lower database index, matching the full stable argsort
    and the engine's merge order.
    """
    distances = np.asarray(distances)
    n_db = distances.shape[1]
    if k is None or k >= n_db:
        return np.argsort(distances, axis=1, kind="stable")
    return topk_tie_stable(distances, k)[0]


def exhaustive_search(
    queries: np.ndarray,
    database: np.ndarray,
    k: int | None = None,
    batch_size: int = 1024,
) -> np.ndarray:
    """Ranked nearest-neighbour indices by exact Euclidean distance.

    Processes queries in batches to bound peak memory at
    ``batch_size × n_db`` floats.
    """
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    obs = get_obs()
    start_time = time.perf_counter() if obs.enabled else 0.0
    results = []
    for start in range(0, len(queries), batch_size):
        block = queries[start : start + batch_size]
        results.append(rank_by_distance(squared_distances(block, database), k=k))
    if obs.enabled:
        obs.registry.histogram(metric_names.SEARCH_EXHAUSTIVE_TIME).observe(
            time.perf_counter() - start_time
        )
    if results:
        return np.concatenate(results, axis=0)
    # An empty query batch keeps the column convention of the non-empty
    # case — (0, k) when k truncates, (0, n_db) otherwise — so callers can
    # concatenate batches or gather labels without special-casing.
    n_db = len(database)
    width = n_db if k is None or k >= n_db else max(k, 0)
    return np.empty((0, width), dtype=np.int64)
