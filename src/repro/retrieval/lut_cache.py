"""Cross-query reuse of per-query ADC lookup tables.

Every ADC scan starts by building one ``(M, K)`` inner-product table per
query (:func:`repro.retrieval.adc.build_lookup_tables`). Serving traffic
is heavy-tailed the same way the data is: a handful of head queries
repeat constantly — retried requests, hedged scans, popular items — and
each repeat pays the full table build again. :class:`LUTCache` keys the
float64 table *rows* by the query vector's bytes so a repeated query (in
the same micro-batch or a later one) skips the einsum entirely.

Bit-exactness. ``np.einsum("qd,mkd->qmk", ...)`` with the default
``optimize=False`` reduces over ``d`` in a fixed order *per output
element*, independent of which other query rows share the batch — so a
table assembled from cached rows plus a subset einsum over the miss rows
is bit-identical to a fresh full-batch build, and every downstream
consumer (the float32 scan cast, the uint8 quantization, the float64
rerank) sees identical inputs. ``tests/retrieval/test_lut_cache.py``
asserts this end to end on :func:`~repro.retrieval.adc.adc_distances`.

Invalidation. A cache is bound to the codebook array it last saw: the
engine and the IVF layer hold their codebooks in one stable float64
array, so an identity change (rebuild, compaction swap) drops every
cached row. Batches larger than the cache capacity bypass it — they
could only thrash the LRU, and the per-row bookkeeping would cost more
than the one batched einsum it replaces.

Thread-safety. Serving replicas share one engine layer (one IVF index,
one mutable index), hence one cache, and scan on executor threads; the
row dictionary and the counters are only touched under a lock. The einsum
over a batch's miss rows runs outside it, so concurrent misses overlap —
two threads missing the same row both build it, bit-identically.

Hit/miss totals land on the ``query.lut.cache.*`` counters
(:mod:`repro.obs.names`) and on the instance's ``hits`` / ``misses``
attributes, which count with or without a registry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names

__all__ = ["DEFAULT_CAPACITY", "LUTCache"]

#: Default number of per-query LUT rows retained (LRU).
DEFAULT_CAPACITY = 256


class LUTCache:
    """LRU cache of float64 ``(M, K)`` lookup-table rows keyed by query.

    Parameters
    ----------
    capacity:
        Maximum rows retained; least-recently-used rows are evicted.
        Batches with more queries than ``capacity`` bypass the cache.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._rows: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._codebooks: np.ndarray | None = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._rows)

    @staticmethod
    def _key(row: np.ndarray) -> bytes:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(row.tobytes())
        return digest.digest()

    def reset(self) -> None:
        """Drop every cached row (counters are cumulative and survive)."""
        with self._lock:
            self._rows.clear()
            self._codebooks = None

    def _rebind(self, codebooks: np.ndarray) -> None:
        """Drop every row if ``codebooks`` is a new array (lock held)."""
        if self._codebooks is not codebooks:
            # New codebook array (rebuild/compaction): every row is stale.
            self._rows.clear()
            self._codebooks = codebooks

    def tables(self, queries: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
        """The ``(n_q, M, K)`` float64 LUT block, reusing cached rows.

        Drop-in for the call sites' ``np.einsum("qd,mkd->qmk", queries,
        codebooks)`` — same shape, same dtype, bit-identical values.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        codebooks = np.asarray(codebooks, dtype=np.float64)
        n_q = len(queries)
        if n_q == 0 or n_q > self.capacity:
            with self._lock:
                self._rebind(codebooks)
            return np.einsum("qd,mkd->qmk", queries, codebooks)
        out = np.empty(
            (n_q, codebooks.shape[0], codebooks.shape[1]), dtype=np.float64
        )
        keys = [self._key(queries[i]) for i in range(n_q)]
        miss: list[int] = []
        first_miss: dict[bytes, int] = {}
        dup_of: list[tuple[int, int]] = []
        batch_hits = 0
        with self._lock:
            self._rebind(codebooks)
            for i, key in enumerate(keys):
                row = self._rows.get(key)
                if row is not None:
                    self._rows.move_to_end(key)
                    out[i] = row
                    batch_hits += 1
                elif key in first_miss:
                    # Repeat *within* the batch: identical bytes, identical
                    # row — serve it from the first occurrence's build.
                    dup_of.append((i, first_miss[key]))
                    batch_hits += 1
                else:
                    first_miss[key] = i
                    miss.append(i)
            self.hits += batch_hits
            self.misses += len(miss)
        if miss:
            fresh = np.einsum("qd,mkd->qmk", queries[miss], codebooks)
            out[miss] = fresh
            with self._lock:
                # Rows built against a codebook array another thread has
                # since replaced must not be stored under the new one.
                if self._codebooks is codebooks:
                    for pos, i in enumerate(miss):
                        # Copy detaches the row from the batch-sized block.
                        self._rows[keys[i]] = fresh[pos].copy()
                        self._rows.move_to_end(keys[i])
                    while len(self._rows) > self.capacity:
                        self._rows.popitem(last=False)
        for i, src in dup_of:
            out[i] = out[src]
        obs = get_obs()
        if obs.enabled:
            if batch_hits:
                obs.registry.counter(metric_names.QUERY_LUT_CACHE_HITS).inc(
                    batch_hits
                )
            if miss:
                obs.registry.counter(metric_names.QUERY_LUT_CACHE_MISSES).inc(
                    len(miss)
                )
        return out
