"""Estimators that stay put on a noisy shared box.

Every timing this benchmark reports is built the same way: the work is cut
into fixed-size blocks, a statistic is taken inside each block, and the
metric is the *quiet quartile over the blocks* — the lower quartile of a
time, the upper quartile of a rate. Whatever disturbs a block of
millisecond-scale work on a shared host (a neighbour's burst, a page-fault
storm, the allocator remapping a buffer) makes it slower, not faster, so the
quartile on the fast side sits inside the undisturbed blocks as long as a
quarter of them were left alone; the median over blocks needs half, and on blocks that come in two
modes it flips from run to run. It is an order statistic over every block
of the run, not a best-of-N: blocks are sized to be interchangeable (same
request count, same work, no state that builds up across them), so the
quarter it reads is a sample of the same workload as the rest.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable, Sequence
from contextlib import nullcontext

import numpy as np

#: Blocks per timed metric; the issue's floor ("no timed metric rests on
#: fewer than 12 blocks").
MIN_BLOCKS = 12


def split_blocks(values: Sequence[float], n_blocks: int) -> list[np.ndarray]:
    """Cut ``values`` into ``n_blocks`` consecutive blocks of equal count.

    The remainder (fewer than ``n_blocks`` trailing samples) is dropped so
    every block's percentile rests on the same number of samples.
    """
    values = np.asarray(values, dtype=np.float64)
    if n_blocks < 1:
        raise ValueError("n_blocks must be at least 1")
    per = len(values) // n_blocks
    if per < 1:
        raise ValueError(
            f"{len(values)} samples cannot fill {n_blocks} blocks"
        )
    return [values[b * per:(b + 1) * per] for b in range(n_blocks)]


def quiet_quartile(block_values: Sequence[float], better: str = "lower") -> float:
    """The quartile of per-block values on the side an undisturbed block
    reads: the lower one where lower is better, else the upper one."""
    return float(np.percentile(block_values, 25.0 if better == "lower" else 75.0))


def block_percentiles(values: Sequence[float], q: float, n_blocks: int) -> list[float]:
    """The ``q``-th percentile inside each of ``n_blocks`` blocks."""
    return [float(np.percentile(block, q)) for block in split_blocks(values, n_blocks)]


def block_percentile(values: Sequence[float], q: float, n_blocks: int) -> float:
    """Quiet quartile over blocks of the per-block ``q``-th percentile (a latency)."""
    return quiet_quartile(block_percentiles(values, q, n_blocks))


def block_share(flags: Sequence[bool], n_blocks: int) -> float:
    """Quiet quartile over blocks of the per-block share of true flags."""
    blocks = split_blocks(np.asarray(flags, dtype=np.float64), n_blocks)
    return quiet_quartile([block.mean() for block in blocks], "higher")


def due_times(start: float, rate: float, n: int) -> np.ndarray:
    """The open-loop schedule: request ``i`` is due at ``start + i / rate``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return start + np.arange(n, dtype=np.float64) / rate


def due_latency(finished: np.ndarray, due: np.ndarray) -> np.ndarray:
    """Latency counted from when each request was *due*, not when it was sent.

    A stall in the generator or the server delays later sends; timing from
    the send instant would hide exactly that wait (coordinated omission).
    """
    return np.asarray(finished, dtype=np.float64) - np.asarray(due, dtype=np.float64)


def generator_lag(sent: np.ndarray, due: np.ndarray, q: float = 95.0) -> float:
    """``q``-th percentile of how late the generator sent (seconds, >= 0)."""
    lag = np.maximum(np.asarray(sent, dtype=np.float64) - np.asarray(due, dtype=np.float64), 0.0)
    return float(np.percentile(lag, q))


def run_interleaved(
    tasks: dict[str, Callable[[int], float]],
    rounds: int,
    *,
    before_round: Callable[[int], None] | None = None,
    span=None,
) -> dict[str, list[float]]:
    """Round-robin schedule: every task once per round, collect its values.

    ``tasks[name](round_id)`` does one fixed-size block of work and returns
    the block's value (a rate or a time). Blocks of different metrics are
    interleaved so a burst that lasts a few seconds hits a few blocks of
    *each* metric instead of all the blocks of one. ``span(name, round_id)``
    is a context manager the traced run records each block with.
    """
    values: dict[str, list[float]] = {name: [] for name in tasks}
    for round_id in range(rounds):
        if before_round is not None:
            before_round(round_id)
        for name, task in tasks.items():
            with span(name, round_id) if span is not None else nullcontext():
                values[name].append(float(task(round_id)))
    return values


def spread(values: Sequence[float]) -> float:
    """IQR / median, as the driver computes it (``statistics.quantiles``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return float("inf") if med == 0 else (q3 - q1) / abs(med)
