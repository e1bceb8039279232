"""Shared machinery: seeded inputs, load generators, checks, provenance.

Nothing here knows a workload's sizes; ``workloads.py`` composes these
pieces. The repo is driven only through its public functions.
"""

from __future__ import annotations

import asyncio
import gc
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.longtail import zipf_class_sizes
from repro.data.synthetic import FeatureModel, make_feature_model
from repro.retrieval import SearchRequest
from repro.retrieval.search import squared_distances, topk_tie_stable
from repro.serving import ServingConfig, validate_response

from estimators import due_latency, due_times
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

K = 10
SAMPLE_QUERIES = 256  # served and parity-checked
EVAL_QUERIES = 1024  # recall and MAP; the sample is their head
IMBALANCE = 50.0
CLOSED_CLIENTS = 2
CLOSED_LEAD_IN_S = 0.05
SLICE_MARGIN_S = 0.025
#: The generators wake this long before a request is due and spin out the
#: rest: a sleep alone overshoots by 0.1-0.2 ms (timer slack plus the wake-up
#: of a second thread), which is most of a 0.25 ms cache hit.
PACE_LEAD_S = 0.0003
MAP_CUTOFF = 100

#: The one ServingConfig every serve workload uses. The default time knobs
#: suit CI-scale indexes; at these corpus sizes a ~300 ms host stall tips
#: them into a retry/hedge/heartbeat storm, and at five times the defaults
#: a 1.6 s stall (SIGSTOP) still lost 75-1 174 requests in 3 of 4 runs (see
#: README, "collapse"). The four knobs are scaled together, 15x the defaults
#: (30x for the heartbeat), and everything else stays default.
SERVING_KNOBS = {
    "request_timeout_s": 15.0,
    "attempt_timeout_s": 3.0,
    "hedge_after_s": 0.75,
    "heartbeat_interval_s": 3.0,
}


def serving_config() -> ServingConfig:
    return ServingConfig(default_k=K, **SERVING_KNOBS)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@dataclass
class Source:
    """A seeded long-tail feature source: Zipf class mix over a mixture."""

    model: FeatureModel
    class_probs: np.ndarray
    rng: np.random.Generator

    def draw(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = self.rng.choice(len(self.class_probs), size=n, p=self.class_probs)
        return self.model.sample(labels, self.rng), labels


def make_source(seed: int, classes: int, dim: int) -> Source:
    """Class prototypes plus a shared low-rank nuisance subspace and a little
    isotropic noise: most variance lives in few directions, as in real
    pre-trained embeddings, so a 48-bit code can rank neighbours (isotropic
    noise alone caps recall@10 near 0.3 at any code budget this small)."""
    rng = np.random.default_rng(seed)
    model = make_feature_model(
        classes, dim, 3.0, 0.15, rng, nuisance_dim=6, nuisance_sigma=1.5
    )
    sizes = zipf_class_sizes(classes, 1000, IMBALANCE).astype(np.float64)
    return Source(model=model, class_probs=sizes / sizes.sum(), rng=rng)


def zipf_indices(rng: np.random.Generator, pool: int, exponent: float, n: int) -> np.ndarray:
    """``n`` draws from ``pool`` items with P(rank r) proportional to r^-exponent."""
    weights = np.arange(1, pool + 1, dtype=np.float64) ** -exponent
    return rng.choice(pool, size=n, p=weights / weights.sum())


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
@dataclass
class Ops:
    """Operations attempted / failed across every phase of a run.

    ``failed`` counts every operation that did not end in a checked, correct
    output; ``wrong`` the subset that *returned* an output which failed its
    check. A host stall longer than the attempt timeout loses requests (they
    fail, and lower ``ok_ratio``) without making any output wrong, so the
    run's ``correct`` flag rests on ``wrong`` alone.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, note: str = "") -> bool:
        """An output was checked: ``ok`` says whether it passed."""
        self.attempted += 1
        if not ok:
            self.wrong += 1
            self._failed(note)
        return ok

    def lost(self, note: str) -> None:
        """An operation ended without an output to check (error, timeout,
        refusal, or an answer the daemon marked degraded)."""
        self.attempted += 1
        self._failed(note)

    def _failed(self, note: str) -> None:
        self.failed += 1
        if note and len(self.notes) < 20:
            self.notes.append(note)


def answer_ok(result, n_db: int) -> bool:
    """Structural check every served answer gets (cheap; parity is sampled)."""
    try:
        validate_response(result.indices[None, :], result.distances[None, :], n_db, 1, K)
    except RuntimeError:
        return False
    return True


def same_answer(got: tuple[np.ndarray, np.ndarray], want: tuple[np.ndarray, np.ndarray]) -> bool:
    """Served vs direct scan: identical ids in identical order (the repo's
    parity contract). Distances agree to rounding only — a LUT built for a
    micro-batch of n rows differs from the single-row build in the last
    bits — so they get a float64 tolerance, not bit equality."""
    return (
        got[0].shape == want[0].shape
        and np.array_equal(got[0], want[0])
        and np.allclose(got[1], want[1], rtol=1e-9, atol=1e-9)
    )


def oracle_topk(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Brute-force float top-K over the corpus."""
    return np.concatenate([
        topk_tie_stable(squared_distances(queries[lo:lo + 32], corpus), K)[0]
        for lo in range(0, len(queries), 32)
    ])  # chunked: the full distance matrix would dominate peak RSS


def recall_at_k(answers: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean([
        len(np.intersect1d(got, want)) / len(want)
        for got, want in zip(answers, truth)
    ]))


# ----------------------------------------------------------------------
# Load generation (one asyncio thread, in the benchmark process)
# ----------------------------------------------------------------------
@dataclass
class OpenLoopResult:
    """Per-request instants of one open-loop run (event-loop clock)."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    from_cache: np.ndarray
    answers: dict[int, tuple[np.ndarray, np.ndarray]]

    @property
    def latency_s(self) -> np.ndarray:
        return due_latency(self.done, self.due)

    @property
    def lag_s(self) -> np.ndarray:
        return np.maximum(self.sent - self.due, 0.0)


async def submit_checked(daemon, request: SearchRequest, ops: Ops, check):
    """One request through the daemon; returns the result or ``None``."""
    try:
        result = await daemon.submit(request)
    except Exception as exc:  # a failed or refused request is a failed op
        ops.lost(f"submit: {type(exc).__name__}: {exc}")
        return None
    if result.degraded:  # valid by the daemon's contract, but not the exact scan
        ops.lost("served answer was degraded")
        return None
    return result if ops.record(check(result), "served answer failed validation") else None


async def open_loop(
    daemon,
    requests,
    rate: float,
    n_blocks: int,
    per_block: int,
    ops: Ops,
    check,
    *,
    start: float | None = None,
    gap_s: float = 0.0,
    keep: np.ndarray | None = None,
    recorder: SpanRecorder | None = None,
    toggle=None,
) -> OpenLoopResult:
    """Send ``requests(i)`` on a fixed schedule; time each from its due instant.

    The schedule is ``n_blocks`` blocks of ``per_block`` requests; it starts
    at ``start`` (event-loop clock) and pauses ``gap_s`` after each block
    (room for ``closed_slices``).
    ``keep[i]`` marks requests whose answers are retained for the parity
    check. With ``toggle`` set (traced run) it is called at each block
    boundary with the block number so tracing alternates block by block.
    """
    loop = asyncio.get_running_loop()
    n = n_blocks * per_block
    sent = np.zeros(n)
    done = np.zeros(n)
    ok = np.zeros(n, dtype=bool)
    from_cache = np.zeros(n, dtype=bool)
    answers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    tasks: list[asyncio.Task] = []
    tracing_block = False

    async def one(i: int, traced: bool) -> None:
        result = await submit_checked(daemon, requests(i), ops, check)
        done[i] = loop.time()
        if result is None:
            return
        ok[i] = True
        from_cache[i] = result.source == "cache"
        if keep is not None and keep[i]:
            answers[i] = (result.indices, result.distances)
        if traced and recorder is not None:
            recorder.add(
                "serving.daemon.submit." + result.source, sent[i], done[i], rid=f"open-{i}"
            )

    def send(i: int) -> None:
        nonlocal tracing_block
        if toggle is not None and i % per_block == 0:
            tracing_block = toggle(i // per_block)
        while loop.time() < due[i]:  # woken PACE_LEAD_S early: spin to the due instant
            pass
        sent[i] = loop.time()
        tasks.append(asyncio.create_task(one(i, tracing_block)))

    if start is None:
        start = loop.time() + 0.05
    due = due_times(start, rate, n) + gap_s * (np.arange(n) // per_block)

    def pace() -> None:
        # The event loop's own timers round up to whole milliseconds, which
        # would add ~1 ms of generator lag to every request; a pacing thread
        # sleeps to just before the due instant and hands the send to the
        # loop, which is then awake when the request is due.
        for i in range(n):
            delay = due[i] - PACE_LEAD_S - time.monotonic()  # the loop's clock
            if delay > 0:
                time.sleep(delay)
            loop.call_soon_threadsafe(send, i)

    await loop.run_in_executor(None, pace)
    while len(tasks) < n:  # the last sends may still be queued on the loop
        await asyncio.sleep(0.001)
    await asyncio.gather(*tasks)
    return OpenLoopResult(due, sent, done, ok, from_cache, answers)


def slice_windows(
    start: float, rate: float, n_blocks: int, per_block: int, gap_s: float
) -> list[tuple[float, float]]:
    """The pause after each open-loop block, less a margin at both ends for
    requests still in flight: where ``closed_slices`` runs."""
    period = per_block / rate + gap_s
    return [
        (start + b * period + per_block / rate + SLICE_MARGIN_S,
         start + (b + 1) * period - SLICE_MARGIN_S)
        for b in range(n_blocks)
    ]


async def closed_slices(
    daemon, requests, windows: list[tuple[float, float]], ops: Ops, check, *,
    clients: int = CLOSED_CLIENTS,
) -> np.ndarray:
    """One closed-loop slice per ``(start, stop)`` window (event-loop clock):
    ``clients`` callers, each sending its next request when the last answers.
    Returns correct answers per second in each window.

    The closed loop is cut into slices between the open-loop blocks for the
    reason T's offline blocks are interleaved: a neighbour's burst of a few
    seconds then hits a few slices, not the whole closed loop. The first
    ``CLOSED_LEAD_IN_S`` of a slice are driven but not counted, so the
    counted part starts with every client in flight.
    """
    loop = asyncio.get_running_loop()
    sent = 0
    rates = []
    for start, stop in windows:
        counted_from = start + min(CLOSED_LEAD_IN_S, (stop - start) / 4)
        counted = 0

        async def client() -> None:
            nonlocal sent, counted
            while loop.time() < stop:
                sent += 1
                result = await submit_checked(daemon, requests(sent - 1), ops, check)
                counted += result is not None and counted_from <= loop.time() <= stop
                # A cache hit returns without suspending; yield so the other
                # client and the daemon's own tasks are not starved.
                await asyncio.sleep(0)

        await asyncio.sleep(max(start - loop.time(), 0.0))
        await asyncio.gather(*(client() for _ in range(clients)))
        rates.append(counted / (stop - counted_from))
    return np.array(rates)


async def serve_sample(daemon, requests, n: int, ops: Ops, check):
    """Serve the fixed sample (closed loop) and return every answer in order."""
    answers: list = [None] * n
    counter = [0]

    async def client() -> None:
        while counter[0] < n:
            i = counter[0]
            counter[0] += 1
            result = await submit_checked(daemon, requests(i), ops, check)
            if result is not None:
                answers[i] = (result.indices, result.distances)

    await asyncio.gather(*(client() for _ in range(CLOSED_CLIENTS)))
    return answers


def paced_calls(call, n: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """In-process open loop (no daemon): ``call(i)`` at ``rate``/s from one
    thread, each timed from its due instant. Returns (latency, lag)."""
    sent = np.empty(n)
    done = np.empty(n)
    due = due_times(time.perf_counter() + 0.002, rate, n)
    for i in range(n):
        delay = due[i] - PACE_LEAD_S - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        while time.perf_counter() < due[i]:
            pass
        sent[i] = time.perf_counter()
        call(i)
        done[i] = time.perf_counter()
    return due_latency(done, due), np.maximum(sent - due, 0.0)


# ----------------------------------------------------------------------
# Set-up repetition, memory, provenance
# ----------------------------------------------------------------------
def repeat_setup(build, teardown, times: int):
    """Run ``build()`` ``times`` times; keep the last, report every duration.

    One-shot set-up timings are bimodal on a shared box: the first set-up of
    a process pays for every page it touches for the first time (1.6-2.7 s
    where a warm one takes 0.8 s), and five identical set-ups of one process
    read 0.77 s or 1.35 s depending on what the allocator kept. ``setup_s``
    is therefore the quiet quartile of several identical set-ups. Each
    discarded stage is torn down first so peak memory reflects one live
    stage.
    """
    durations = []
    stage = None
    for _ in range(times):
        if stage is not None:
            teardown(stage)
            stage = None
            gc.collect()
        start = time.perf_counter()
        stage = build()
        durations.append(time.perf_counter() - start)
    return stage, durations


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_pressure() -> str:
    try:
        return Path("/proc/pressure/cpu").read_text().splitlines()[0]
    except OSError:
        return "unavailable"


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "serving_config": SERVING_KNOBS,
    }
