"""Replica workers: engine copies with health state and response checking.

A :class:`Replica` wraps one :class:`~repro.retrieval.engine.QueryEngine`
and is the unit of failover. Every scan passes two duck-typed hook points
(``faults.before_scan`` / ``faults.transform_response`` — see
:mod:`repro.resilience.faults`) and then a response validator, so an
injected crash, straggler stall, or bit-flipped payload surfaces as a
typed exception the daemon can retry somewhere else. Replicas are plain
in-process objects: the point of this layer is the *protocol* (health,
failover, validation), which is identical whether the scan runs in-process
or on a remote box.

:class:`ReplicaSet` tracks liveness. A replica is served traffic only
while it is both **healthy** (no unrecovered crash; heartbeats answer)
and its circuit breaker admits traffic. Heartbeats are tiny real scans —
they exercise the same code path a request does, so a replica that can
answer a heartbeat can answer a query.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.serving.breaker import CircuitBreaker

__all__ = [
    "Replica",
    "ReplicaSet",
    "ResponseValidationError",
    "validate_response",
]

HEALTHY = "healthy"
DEAD = "dead"


class ResponseValidationError(RuntimeError):
    """A scan response failed the sanity contract (corruption suspected)."""


def validate_response(
    indices: np.ndarray,
    distances: np.ndarray,
    n_db: int,
    n_queries: int,
    k: int,
    *,
    id_bound: int | None = None,
    exact_width: bool = True,
) -> None:
    """Reject responses that cannot have come from a correct scan.

    Checks shape, id range, distance sanity (finite, non-negative —
    squared distances), and per-row monotone ordering. Raises
    :class:`ResponseValidationError`; silent in-range id swaps are
    undetectable here by design — that is what the exact-parity tests and
    the rerank oracle are for.

    A mutable engine returns *external* ids and its live count moves under
    concurrent mutations, so for those scans the caller passes the index's
    ``id_bound`` (ids never exceed it, whatever raced) and
    ``exact_width=False`` (the answer is as wide as the live count at
    snapshot time, which the validator cannot re-derive — only ``k`` still
    bounds it).
    """
    bound = n_db if id_bound is None else id_bound
    expected = (n_queries, min(k, n_db))
    if exact_width:
        if indices.shape != expected or distances.shape != expected:
            raise ResponseValidationError(
                f"response shape {indices.shape}/{distances.shape}, "
                f"expected {expected}"
            )
    else:
        if (
            indices.shape != distances.shape
            or indices.ndim != 2
            or indices.shape[0] != n_queries
            or indices.shape[1] > k
        ):
            raise ResponseValidationError(
                f"response shape {indices.shape}/{distances.shape}, "
                f"expected ({n_queries}, <= {k})"
            )
    if indices.size == 0:
        return
    if indices.min() < 0 or indices.max() >= bound:
        raise ResponseValidationError(f"response ids outside [0, {bound})")
    # Two reductions cover finite *and* non-negative: min/max propagate a NaN
    # (which fails both comparisons), and +-inf falls outside [0, inf).
    if not (distances.min() >= 0 and distances.max() < np.inf):
        raise ResponseValidationError("response distances non-finite or negative")
    if (distances[:, 1:] < distances[:, :-1]).any():
        raise ResponseValidationError("response distances not sorted per row")


class Replica:
    """One engine copy plus its fault hooks and call counter.

    Scan calls are numbered 1.. per replica under a lock (scans run on
    executor threads and, for a replica the daemon has seen to be fast, on
    the event-loop thread), giving fault plans their deterministic
    ``(replica, call)`` coordinates.
    """

    def __init__(self, replica_id: int, engine, faults=None) -> None:
        self.replica_id = int(replica_id)
        self.engine = engine
        self.faults = faults
        self.calls = 0
        self._lock = threading.Lock()

    @property
    def n_db(self) -> int:
        return self.engine.n_db

    @property
    def dim(self) -> int:
        return self.engine.dim

    @property
    def mutable(self) -> bool:
        """True when the engine is a mutable index (external-id results)."""
        return bool(getattr(self.engine, "is_mutable", False))

    @property
    def has_ivf(self) -> bool:
        """True when the engine can honour a per-request ``nprobe``."""
        return getattr(self.engine, "ivf", None) is not None

    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        rerank: bool | None = None,
        nprobe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One validated scan; raises on injected or detected failure."""
        with self._lock:
            self.calls += 1
            call = self.calls
        if self.faults is not None:
            self.faults.before_scan(self.replica_id, call)
        # A non-IVF engine rejects a set nprobe with a clear error; the
        # daemon screens for that at admission so it never reaches a scan.
        indices, distances = self.engine.search_with_distances(
            queries, k=k, rerank=rerank, nprobe=nprobe
        )
        if self.faults is not None:
            indices, distances = self.faults.transform_response(
                self.replica_id, call, indices, distances
            )
        if self.mutable:
            validate_response(
                indices,
                distances,
                self.n_db,
                len(queries),
                k,
                id_bound=self.engine.id_bound,
                exact_width=False,
            )
        else:
            validate_response(indices, distances, self.n_db, len(queries), k)
        return indices, distances

    def ping(self) -> None:
        """Heartbeat: a real single-row scan through the full search path."""
        probe = np.zeros((1, self.dim), dtype=np.float64)
        self.search(probe, k=1)


class ReplicaSet:
    """Liveness + breaker bookkeeping over a fixed set of replicas.

    ``candidates`` yields servable replicas in rotation order so load
    spreads and failover has a deterministic "next" replica;
    ``mark_dead`` / ``mark_healthy`` are driven by scan outcomes and
    heartbeats. The healthy count is exported via the
    ``serve.replicas.healthy`` gauge on every change.
    """

    def __init__(self, replicas: list[Replica], breakers: list[CircuitBreaker]):
        if not replicas:
            raise ValueError("at least one replica is required")
        if len(replicas) != len(breakers):
            raise ValueError("one breaker per replica")
        self.replicas = list(replicas)
        self.breakers = list(breakers)
        self._breaker_by_id = {
            r.replica_id: breaker for r, breaker in zip(self.replicas, self.breakers)
        }
        self.states = {r.replica_id: HEALTHY for r in self.replicas}
        self._rotation = 0
        self._publish_health()

    def __len__(self) -> int:
        return len(self.replicas)

    def breaker_for(self, replica_id: int) -> CircuitBreaker:
        return self._breaker_by_id[replica_id]

    def healthy_count(self) -> int:
        return sum(1 for state in self.states.values() if state == HEALTHY)

    def _publish_health(self) -> None:
        obs = get_obs()
        if obs.enabled:
            obs.registry.gauge(metric_names.SERVE_REPLICAS_HEALTHY).set(
                float(self.healthy_count())
            )

    def mark_dead(self, replica_id: int) -> None:
        if self.states.get(replica_id) != DEAD:
            self.states[replica_id] = DEAD
            self._publish_health()

    def mark_healthy(self, replica_id: int) -> None:
        if self.states.get(replica_id) != HEALTHY:
            self.states[replica_id] = HEALTHY
            self._publish_health()

    def candidates(
        self, now: float, exclude: set[int] | None = None
    ) -> list[Replica]:
        """Servable replicas, rotated for spread, minus ``exclude``.

        A dead replica is still offered *last* when nothing else is left —
        with every replica down, attempting the corpse (it may have
        revived) beats refusing outright; its breaker still gates the
        attempt rate.
        """
        exclude = exclude or set()
        n = len(self.replicas)
        rotated = [self.replicas[(self._rotation + i) % n] for i in range(n)]
        self._rotation = (self._rotation + 1) % n
        alive = [
            r for r in rotated
            if r.replica_id not in exclude
            and self.states[r.replica_id] == HEALTHY
            and self.breaker_for(r.replica_id).would_allow(now)
        ]
        if alive:
            return alive
        return [
            r for r in rotated
            if r.replica_id not in exclude
            and self.breaker_for(r.replica_id).would_allow(now)
        ]

    def heartbeat(self, now: float) -> dict[int, bool]:
        """Ping every replica; update liveness and breakers. Returns
        ``{replica_id: alive}`` for this round.

        Dead replicas are pinged too — a successful heartbeat is how a
        revived replica rejoins the rotation.
        """
        outcomes: dict[int, bool] = {}
        for replica in self.replicas:
            breaker = self.breaker_for(replica.replica_id)
            try:
                replica.ping()
            except Exception:
                outcomes[replica.replica_id] = False
                breaker.record_failure(now)
                self.mark_dead(replica.replica_id)
            else:
                outcomes[replica.replica_id] = True
                breaker.record_success(now)
                self.mark_healthy(replica.replica_id)
        return outcomes
