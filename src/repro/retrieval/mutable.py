"""Segmented mutable index: online add/remove over the immutable ADC stack.

Every index in the repo below this module is build-once/read-only — a
:class:`~repro.retrieval.index.QuantizedIndex` and its engine/IVF layouts
never change after construction. Long-tail corpora do: new tail classes
arrive, stale items leave, and a serving tier cannot afford a full rebuild
per change. :class:`MutableIndex` closes that gap with the standard
LSM-style decomposition:

- ``add(vectors, ids)`` encodes the batch with the *existing* codebooks
  (:func:`~repro.retrieval.adc.encode_nearest` is deterministic, so the
  codes are bit-identical to what a from-scratch rebuild would produce)
  and seals it into an immutable :class:`Segment`, rows sorted by external
  id.
- ``remove(ids)`` never touches row storage: it flips tombstone bits in a
  copy-on-write mask, so a dead row simply scans at distance ``+inf``.
- ``compact()`` merges every segment's live rows into one fresh base
  segment in ascending-id order, drops tombstones, rebuilds the attached
  engine (and its IVF cell layout) over the compacted rows, and swaps the
  whole generation in with a single reference assignment — in-flight
  searches keep the snapshot they started with, so queries are never
  interrupted.

**Exactness.** Search results are *bit-identical* to a from-scratch
rebuild over the live rows (parity-tested in
``tests/retrieval/test_mutable.py``): ADC distances are per-row
independent, segment rows are id-sorted so the tie-stable per-segment
top-k's column order is id order, and the cross-segment merge is a
``lexsort`` on ``(distance, external id)`` — the exact order the rebuilt
index's stable ranking produces. Tombstones cannot perturb live rows: a
dead row's norm is ``+inf``, which only ever loses comparisons.

**Drift.** Each add batch's mean quantization error is compared against a
baseline (the first batch, unless set explicitly); the ratio lands in the
``mutable.drift.ratio`` gauge, and crossing ``drift_threshold`` flags that
the DSQ codebooks should be fine-tuned and the index refreshed
(``mutable.refresh.flagged``).

Thread-safety: mutations serialise on an internal lock and publish a new
immutable generation; searches read the generation reference once and
never block. Metrics land in the ``mutable.*`` family
(``docs/metrics.md``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.adc import (
    encode_reconstruct,
    merge_topk,
    query_tables,
    scan_codes,
    scan_tables,
    scan_topk,
)
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.search import (
    SearchSurface,
    empty_answer,
    validate_query_batch,
)

__all__ = [
    "MutableIndex",
    "MutationRequest",
    "MutationResult",
    "Segment",
]

_MUTATION_OPS = ("add", "remove", "compact")


@dataclass(frozen=True)
class MutationRequest:
    """One mutation, as data — the write-side twin of ``SearchRequest``.

    Attributes
    ----------
    op:
        ``"add"``, ``"remove"``, or ``"compact"``.
    vectors:
        ``(n, d)`` float vectors to append (``add`` only).
    ids:
        External ids: the rows to append under (``add``; auto-assigned
        when omitted) or the live rows to tombstone (``remove``).
    labels:
        Optional per-row labels carried alongside added vectors.
    """

    op: str
    vectors: np.ndarray | None = None
    ids: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.op not in _MUTATION_OPS:
            raise ValueError(
                f"op must be one of {_MUTATION_OPS}, got {self.op!r}"
            )
        if self.op == "add" and self.vectors is None:
            raise ValueError("add requires vectors")
        if self.op == "remove" and self.ids is None:
            raise ValueError("remove requires ids")


@dataclass(frozen=True)
class MutationResult:
    """What one mutation did, with the segment stats after it.

    Attributes
    ----------
    op:
        The operation performed.
    added:
        Rows appended by this mutation.
    removed:
        Rows tombstoned by this mutation (for ``compact``: tombstones
        dropped).
    live:
        Live (searchable) rows after the mutation.
    tombstones:
        Tombstoned rows still awaiting compaction.
    segments:
        Sealed segments (base included) in the new generation.
    segment_sizes:
        Stored row count per segment, in segment order.
    generation:
        Monotone generation number published by this mutation.
    elapsed_s:
        Wall time of the mutation.
    drift_ratio:
        Quantization-error drift ratio after the mutation (``nan`` until a
        baseline exists).
    """

    op: str
    added: int
    removed: int
    live: int
    tombstones: int
    segments: int
    segment_sizes: tuple[int, ...]
    generation: int
    elapsed_s: float
    drift_ratio: float


@dataclass(frozen=True)
class Segment:
    """One sealed, immutable run of encoded rows.

    Rows are sorted by ascending external id at seal time, so the
    tie-stable per-segment top-k (which breaks distance ties by column
    index) breaks them by external id — the invariant the cross-segment
    merge and the rebuild-parity contract rest on. ``dead`` is the
    tombstone mask; ``scan_norms`` bakes it in as ``+inf`` norms so the
    scan itself needs no masking pass. ``codes_t`` is the segment's one
    code array: the frozen :func:`~repro.retrieval.adc.scan_codes` layout —
    unfused, since segments scan in float64 — laid out once at seal time,
    shared by every copy-on-write tombstoning of the segment and, for a
    base, by its engine's index and flat layout. ``codes`` is its
    ``(n, M)`` view.
    """

    codes_t: np.ndarray = field(repr=False)
    norms: np.ndarray
    ids: np.ndarray
    labels: np.ndarray | None
    dead: np.ndarray
    scan_norms: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    n_dead: int = 0

    @classmethod
    def seal(
        cls,
        codes: np.ndarray,
        norms: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray | None = None,
        dead: np.ndarray | None = None,
        *,
        num_codewords: int,
    ) -> "Segment":
        """Sort rows by external id and freeze the segment.

        ``num_codewords`` is the ``K`` the codes index: the scan layout is
        range-checked against it here, once.
        """
        ids = np.asarray(ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        codes_t = np.take(scan_codes(codes, num_codewords), order, axis=1)
        codes_t.setflags(write=False)
        norms = np.ascontiguousarray(np.asarray(norms, dtype=np.float64)[order])
        ids = np.ascontiguousarray(ids[order])
        if labels is not None:
            labels = np.asarray(labels)[order]
        if dead is None:
            dead = np.zeros(len(ids), dtype=bool)
        else:
            dead = np.asarray(dead, dtype=bool)[order]
        return cls._assemble(codes_t, norms, ids, labels, dead)

    @classmethod
    def _assemble(cls, codes_t, norms, ids, labels, dead) -> "Segment":
        scan_norms = np.where(dead, np.inf, norms)
        return cls(
            codes_t=codes_t,
            norms=norms,
            ids=ids,
            labels=labels,
            dead=dead,
            scan_norms=scan_norms,
            n_dead=int(dead.sum()),
        )

    def with_dead(self, rows: np.ndarray) -> "Segment":
        """Copy-on-write tombstoning: a new segment with ``rows`` dead."""
        dead = self.dead.copy()
        dead[rows] = True
        return type(self)._assemble(
            self.codes_t, self.norms, self.ids, self.labels, dead
        )

    @property
    def codes(self) -> np.ndarray:
        """``(n, M)`` codeword ids: a view of ``codes_t``."""
        return self.codes_t.T

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_live(self) -> int:
        return len(self) - self.n_dead


@dataclass(frozen=True)
class _Generation:
    """An immutable snapshot of the whole index: base + sealed segments.

    ``segments[0]`` is the base (the last compaction's output, possibly
    empty); later entries are add batches sealed since. Searches capture
    one ``_Generation`` reference and are immune to concurrent mutations.
    """

    number: int
    segments: tuple[Segment, ...]

    @property
    def live_count(self) -> int:
        return sum(segment.n_live for segment in self.segments)

    @property
    def dead_count(self) -> int:
        return sum(segment.n_dead for segment in self.segments)


class MutableIndex(SearchSurface):
    """A quantized index that accepts online ``add``/``remove``/``compact``.

    Parameters
    ----------
    codebooks:
        ``(M, K, d)`` codeword tables all segments encode against.
    engine_kwargs:
        When given, a :class:`~repro.retrieval.engine.QueryEngine` with
        these kwargs is kept over the base segment and rebuilt at every
        compaction (pass ``ivf=<cells>`` for a coarse IVF layer whose cell
        blocks are re-balanced with each compacted base). Freshly added
        segments are always scanned exactly in-process; the engine
        accelerates the (large) base.
    auto_compact_segments:
        Compact automatically when the generation exceeds this many
        segments (``None`` disables; ``compact()`` stays available).
    auto_compact_dead_fraction:
        Compact automatically when tombstones exceed this fraction of
        stored rows (``None`` disables).
    drift_threshold:
        Flag a DSQ refresh when an add batch's mean quantization error
        exceeds ``threshold × baseline``.
    labels_required:
        Set when constructing from a labelled index so every add batch
        must carry labels (keeps :meth:`rebuild` label-complete).
    """

    def __init__(
        self,
        codebooks: np.ndarray,
        *,
        engine_kwargs: dict | None = None,
        auto_compact_segments: int | None = None,
        auto_compact_dead_fraction: float | None = None,
        drift_threshold: float = 2.0,
        labels_required: bool = False,
    ) -> None:
        self.codebooks = np.asarray(codebooks, dtype=np.float64)
        if self.codebooks.ndim != 3:
            raise ValueError("codebooks must be (M, K, d)")
        if auto_compact_segments is not None and auto_compact_segments < 1:
            raise ValueError("auto_compact_segments must be at least 1")
        if auto_compact_dead_fraction is not None and not (
            0.0 < auto_compact_dead_fraction <= 1.0
        ):
            raise ValueError("auto_compact_dead_fraction must lie in (0, 1]")
        if drift_threshold <= 1.0:
            raise ValueError("drift_threshold must exceed 1")
        self._engine_kwargs = dict(engine_kwargs) if engine_kwargs else None
        self.auto_compact_segments = auto_compact_segments
        self.auto_compact_dead_fraction = auto_compact_dead_fraction
        self.drift_threshold = float(drift_threshold)
        self.labels_required = bool(labels_required)

        m = self.codebooks.shape[0]
        empty_base = Segment.seal(
            np.empty((0, m), dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            labels=None,
            num_codewords=self.num_codewords,
        )
        self._gen = _Generation(number=0, segments=(empty_base,))
        self._lock = threading.Lock()
        # Live id -> (segment position in the generation tuple, row).
        self._locations: dict[int, tuple[int, int]] = {}
        self._next_id = 0
        self._engine = None
        self._engine_base: Segment | None = None
        self._closed = False

        self._drift_baseline: float | None = None
        self._drift_ratio = float("nan")
        self._refresh_flagged = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(
        cls,
        index: QuantizedIndex,
        ids: np.ndarray | None = None,
        **kwargs,
    ) -> "MutableIndex":
        """Adopt an existing immutable index as the base segment.

        ``ids`` names the external id of each index row (defaults to the
        row number). The rows are adopted as-is — codes and norms are
        reused, not re-encoded.
        """
        if ids is None:
            ids = np.arange(len(index), dtype=np.int64)
        kwargs.setdefault("labels_required", index.labels is not None)
        mutable = cls(index.codebooks, **kwargs)
        with mutable._lock:
            base = Segment.seal(
                index.codes, index.db_sq_norms, ids, labels=index.labels,
                num_codewords=index.num_codewords,
            )
            mutable._install_generation(
                _Generation(number=1, segments=(base,)), rebuild_engine=True
            )
            mutable._locations = {
                int(ext): (0, row) for row, ext in enumerate(base.ids)
            }
            mutable._next_id = int(base.ids.max()) + 1 if len(base) else 0
        return mutable

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._gen.live_count

    @property
    def n_db(self) -> int:
        """Live (searchable) rows — the engine-protocol database size."""
        return self._gen.live_count

    @property
    def dim(self) -> int:
        return self.codebooks.shape[2]

    @property
    def num_codebooks(self) -> int:
        return self.codebooks.shape[0]

    @property
    def num_codewords(self) -> int:
        return self.codebooks.shape[1]

    @property
    def id_bound(self) -> int:
        """Exclusive upper bound on any id a search can return."""
        return self._next_id

    @property
    def is_mutable(self) -> bool:
        """Engine-protocol marker: result ids are external, counts move."""
        return True

    @property
    def generation(self) -> int:
        return self._gen.number

    @property
    def num_segments(self) -> int:
        return len(self._gen.segments)

    @property
    def tombstone_count(self) -> int:
        return self._gen.dead_count

    @property
    def drift_ratio(self) -> float:
        """Latest add batch's quantization error over the baseline."""
        return self._drift_ratio

    @property
    def refresh_recommended(self) -> bool:
        """True once drift has crossed ``drift_threshold`` (latched)."""
        return self._refresh_flagged

    @property
    def ivf(self):
        """The base engine's IVF layer, if one is attached."""
        return getattr(self._engine, "ivf", None)

    def segment_sizes(self) -> tuple[int, ...]:
        return tuple(len(segment) for segment in self._gen.segments)

    def live_ids(self) -> np.ndarray:
        """Sorted external ids of every live row."""
        gen = self._gen
        parts = [segment.ids[~segment.dead] for segment in gen.segments]
        ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return np.sort(ids)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the base engine; later searches and mutations raise."""
        if self._closed:
            return
        self._closed = True
        if self._engine is not None:
            self._engine.close()
        self._engine = None

    def __enter__(self) -> "MutableIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def apply(self, request: MutationRequest) -> MutationResult:
        """Dispatch one :class:`MutationRequest`."""
        if request.op == "add":
            return self.add(request.vectors, ids=request.ids, labels=request.labels)
        if request.op == "remove":
            return self.remove(request.ids)
        return self.compact()

    def add(
        self,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        labels: np.ndarray | None = None,
    ) -> MutationResult:
        """Encode ``vectors`` with the existing codebooks and seal a segment.

        ``ids`` must not collide with any *live* id (an id freed by
        ``remove`` may be reused immediately — the tombstoned row stays
        dead). Auto-assigned ids continue from the highest ever assigned.
        """
        start = time.perf_counter()
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or (vectors.size and vectors.shape[1] != self.dim):
            raise ValueError(
                f"vectors must be (n, {self.dim}), got shape {vectors.shape}"
            )
        if self.labels_required and labels is None and len(vectors):
            raise ValueError("this index carries labels; add batches must too")
        if labels is not None and len(labels) != len(vectors):
            raise ValueError("labels and vectors disagree on batch size")
        with self._lock:
            self._check_open()
            n = len(vectors)
            if ids is None:
                ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
            else:
                ids = np.asarray(ids, dtype=np.int64)
                if ids.shape != (n,):
                    raise ValueError("ids and vectors disagree on batch size")
                if n and len(np.unique(ids)) != n:
                    raise ValueError("add batch contains duplicate ids")
                if ids.size and ids.min() < 0:
                    raise ValueError("ids must be non-negative")
                clashes = [int(i) for i in ids if int(i) in self._locations]
                if clashes:
                    raise ValueError(
                        f"ids already live in the index: {clashes[:5]}"
                    )
            if n == 0:
                # Nothing to seal: an empty segment would only slow scans.
                return self._result("add", 0, 0, start)
            codes, reconstructions = encode_reconstruct(vectors, self.codebooks)
            norms = (reconstructions**2).sum(axis=1)
            self._update_drift(vectors, reconstructions)
            segment = Segment.seal(
                codes, norms, ids, labels=labels,
                num_codewords=self.num_codewords,
            )
            gen = self._gen
            position = len(gen.segments)
            self._install_generation(
                replace(
                    gen,
                    number=gen.number + 1,
                    segments=gen.segments + (segment,),
                ),
                rebuild_engine=False,
            )
            for row, ext in enumerate(segment.ids):
                self._locations[int(ext)] = (position, row)
            self._next_id = max(self._next_id, int(ids.max()) + 1)
            obs = get_obs()
            if obs.enabled:
                obs.registry.counter(metric_names.MUTABLE_ADDS_TOTAL).inc(n)
                obs.registry.histogram(metric_names.MUTABLE_ADD_TIME).observe(
                    time.perf_counter() - start
                )
            result = self._result("add", n, 0, start)
        self._maybe_auto_compact()
        return result

    def remove(self, ids: np.ndarray) -> MutationResult:
        """Tombstone live rows; storage is reclaimed by ``compact()``."""
        start = time.perf_counter()
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        with self._lock:
            self._check_open()
            missing = [int(i) for i in ids if int(i) not in self._locations]
            if missing:
                raise ValueError(
                    f"ids are not live in the index: {missing[:5]}"
                )
            by_segment: dict[int, list[int]] = {}
            for ext in ids:
                position, row = self._locations[int(ext)]
                by_segment.setdefault(position, []).append(row)
            gen = self._gen
            segments = list(gen.segments)
            for position, rows in by_segment.items():
                segments[position] = segments[position].with_dead(
                    np.asarray(rows, dtype=np.int64)
                )
            self._install_generation(
                replace(gen, number=gen.number + 1, segments=tuple(segments)),
                rebuild_engine=False,
            )
            for ext in ids:
                del self._locations[int(ext)]
            obs = get_obs()
            if obs.enabled:
                obs.registry.counter(metric_names.MUTABLE_REMOVES_TOTAL).inc(
                    len(ids)
                )
            result = self._result("remove", 0, len(ids), start)
        self._maybe_auto_compact()
        return result

    def compact(self) -> MutationResult:
        """Merge live rows into one base segment and swap generations.

        Live rows from every segment are gathered in ascending-id order
        (the layout :meth:`rebuild` produces), tombstones are dropped, and
        the attached engine — including any IVF cell layout — is rebuilt
        over the new base *before* the atomic generation swap, so searches
        only ever see a complete generation.
        """
        start = time.perf_counter()
        with self._lock:
            self._check_open()
            gen = self._gen
            dropped = gen.dead_count
            merged = self._merged_live_segment(gen)
            self._install_generation(
                _Generation(number=gen.number + 1, segments=(merged,)),
                rebuild_engine=True,
            )
            self._locations = {
                int(ext): (0, row) for row, ext in enumerate(merged.ids)
            }
            obs = get_obs()
            if obs.enabled:
                obs.registry.counter(metric_names.MUTABLE_COMPACTIONS_TOTAL).inc()
                obs.registry.histogram(metric_names.MUTABLE_COMPACT_TIME).observe(
                    time.perf_counter() - start
                )
            return self._result("compact", 0, dropped, start)

    def rebuild(self) -> tuple[QuantizedIndex, np.ndarray]:
        """The from-scratch equivalent: ``(index, ids)`` over live rows.

        Rows come out in ascending external-id order; codes are reused
        (re-encoding would produce the same ones — the encoder is
        deterministic). This is what the parity contract compares against
        and what compaction installs as the new base.
        """
        merged = self._merged_live_segment(self._gen)
        index = QuantizedIndex(
            self.codebooks, merged.codes, merged.norms, merged.labels
        )
        return index, merged.ids

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    last_dispatch = "mutable"

    def search_with_distances(
        self,
        queries: np.ndarray,
        k: int | None = None,
        *,
        rerank: bool | None = None,
        nprobe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k ``(external ids, squared distances)`` over live rows.

        Bit-identical to searching the :meth:`rebuild` index (which maps
        positions to the same external ids) as long as the base path is
        exact — i.e. unless ``nprobe`` prunes the base through an attached
        IVF layer. ``k`` is capped at the live count; tombstoned rows can
        never appear.

        The batch's lookup tables are built once — through the base
        engine's LUT cache when there is one — and shared by the base scan
        and every sealed segment's float64 scan.
        """
        gen = self._gen
        engine = self._engine
        engine_base = self._engine_base
        queries, k_eff = validate_query_batch(
            queries,
            k,
            nprobe,
            dim=self.dim,
            n_db=gen.live_count,
            has_ivf=getattr(engine, "ivf", None) is not None,
        )
        if not (len(queries) and k_eff):
            return empty_answer(len(queries), k_eff)
        if engine is None:
            tables = query_tables(queries, self.codebooks)
        else:
            tables = engine.tables(queries, nprobe)
        # Sealed segments scan in float64 (the reference summation order),
        # so one query-minor float64 layout serves all of them.
        segment_tables = None

        id_blocks: list[np.ndarray] = []
        dist_blocks: list[np.ndarray] = []
        for segment in gen.segments:
            if len(segment) == 0 or segment.n_live == 0:
                continue
            if engine is not None and segment is engine_base:
                # The engine cannot mask tombstones, so over-fetch by the
                # base's dead count: among the top (k_eff + n_dead) rows at
                # least k_eff are live (or every live base row is included).
                base_k = min(len(segment), k_eff + segment.n_dead)
                rows, dists = engine.scan(
                    queries, tables, base_k, rerank=rerank, nprobe=nprobe
                )
                dists = np.where(segment.dead[rows], np.inf, dists)
            else:
                # A segment's id-sorted rows make its column order id order.
                if segment_tables is None:
                    segment_tables = scan_tables(*tables, np.float64)
                dists, rows, _, _ = scan_topk(
                    *segment_tables, segment.codes_t, segment.scan_norms,
                    [(0, len(segment))], k_eff,
                )
            id_blocks.append(segment.ids[rows])
            dist_blocks.append(dists)
        return merge_topk(dist_blocks, id_blocks, k_eff)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("mutable index is closed")

    def _result(
        self, op: str, added: int, removed: int, start: float
    ) -> MutationResult:
        gen = self._gen
        obs = get_obs()
        if obs.enabled:
            obs.registry.gauge(metric_names.MUTABLE_SEGMENTS_LIVE).set(
                float(len(gen.segments))
            )
            obs.registry.gauge(metric_names.MUTABLE_TOMBSTONES_LIVE).set(
                float(gen.dead_count)
            )
        return MutationResult(
            op=op,
            added=added,
            removed=removed,
            live=gen.live_count,
            tombstones=gen.dead_count,
            segments=len(gen.segments),
            segment_sizes=tuple(len(segment) for segment in gen.segments),
            generation=gen.number,
            elapsed_s=time.perf_counter() - start,
            drift_ratio=self._drift_ratio,
        )

    def _merged_live_segment(self, gen: _Generation) -> Segment:
        codes = np.concatenate([s.codes[~s.dead] for s in gen.segments])
        norms = np.concatenate([s.norms[~s.dead] for s in gen.segments])
        ids = np.concatenate([s.ids[~s.dead] for s in gen.segments])
        labels = None
        if all(
            s.labels is not None for s in gen.segments if len(s)
        ) and any(len(s) for s in gen.segments):
            labels = np.concatenate(
                [s.labels[~s.dead] for s in gen.segments if len(s)]
            )
        return Segment.seal(
            codes, norms, ids, labels=labels, num_codewords=self.num_codewords
        )

    def _install_generation(
        self, gen: _Generation, *, rebuild_engine: bool
    ) -> None:
        """Publish ``gen``; optionally rebuild the engine over its base.

        The engine is built *before* the swap, so a search never observes
        a generation whose base has no serving layout. The previous engine
        is dropped, not closed: searches that captured the old generation
        may still be scanning through it, and it holds nothing to release.
        """
        if self._engine_kwargs is not None and rebuild_engine:
            from repro.retrieval.engine import QueryEngine

            base = gen.segments[0]
            new_engine = None
            if len(base):
                # The engine's index and flat layout are views of base.codes_t.
                new_engine = QueryEngine(
                    QuantizedIndex(self.codebooks, base.codes, base.norms, base.labels),
                    **self._engine_kwargs,
                )
            self._engine = new_engine
            self._engine_base = base if new_engine is not None else None
        self._gen = gen

    def _update_drift(
        self, vectors: np.ndarray, reconstructions: np.ndarray
    ) -> None:
        error = float(((vectors - reconstructions) ** 2).sum(axis=1).mean())
        if self._drift_baseline is None:
            self._drift_baseline = max(error, 1e-12)
        ratio = error / self._drift_baseline
        previous = self._drift_ratio
        self._drift_ratio = ratio
        obs = get_obs()
        if obs.enabled:
            obs.registry.gauge(metric_names.MUTABLE_DRIFT_RATIO).set(ratio)
        crossed = ratio > self.drift_threshold and not (
            np.isfinite(previous) and previous > self.drift_threshold
        )
        if crossed:
            self._refresh_flagged = True
            if obs.enabled:
                obs.registry.counter(metric_names.MUTABLE_REFRESH_FLAGGED).inc()

    def set_drift_baseline(self, vectors: np.ndarray) -> float:
        """Pin the drift baseline to ``vectors``' mean quantization error."""
        vectors = np.asarray(vectors, dtype=np.float64)
        _, reconstructions = encode_reconstruct(vectors, self.codebooks)
        error = float(((vectors - reconstructions) ** 2).sum(axis=1).mean())
        self._drift_baseline = max(error, 1e-12)
        return self._drift_baseline

    def _maybe_auto_compact(self) -> None:
        gen = self._gen
        if (
            self.auto_compact_segments is not None
            and len(gen.segments) > self.auto_compact_segments
        ):
            self.compact()
            return
        if self.auto_compact_dead_fraction is not None:
            stored = sum(len(segment) for segment in gen.segments)
            if stored and gen.dead_count / stored > self.auto_compact_dead_fraction:
                self.compact()
