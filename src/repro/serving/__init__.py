"""Resilient serving layer over the ADC query engine.

``repro.serving`` turns the batch-oriented :class:`QueryEngine` into a
long-running daemon: asyncio micro-batching, replica engines
with heartbeat health checks and automatic failover, deadlines with
retry/backoff/hedging, per-replica circuit breakers, an LRU/TTL result
cache, and explicit degraded modes under overload or replica loss. See
``docs/architecture.md`` ("The serving daemon") for the full state
machine and ``repro serve`` for the CLI front end.
"""

from repro.serving.batcher import MicroBatcher, PendingRequest
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serving.cache import CacheEntry, ResultCache, query_signature
from repro.serving.daemon import (
    Overloaded,
    RequestFailed,
    ServeResult,
    ServingConfig,
    ServingDaemon,
)
from repro.serving.replica import (
    Replica,
    ReplicaSet,
    ResponseValidationError,
    validate_response,
)
from repro.serving.traffic import LoadReport, RequestRecord, TrafficGenerator

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CacheEntry",
    "CircuitBreaker",
    "LoadReport",
    "MicroBatcher",
    "Overloaded",
    "PendingRequest",
    "Replica",
    "ReplicaSet",
    "RequestFailed",
    "RequestRecord",
    "ResponseValidationError",
    "ResultCache",
    "ServeResult",
    "ServingConfig",
    "ServingDaemon",
    "TrafficGenerator",
    "query_signature",
    "validate_response",
]
