#!/usr/bin/env python
"""Per-stage time budget of one index-build block at the benchmark shapes.

    python scripts/build_budget.py [--repeats 7]

Builds one block of each benchmark workload's index build, as
``benchmarks/perf`` times it (synthetic clustered rows; one BLAS thread):

- F: ``ShardedIndex(QuantizedIndex.build(codebooks, rows), 1)``, 16 384 rows
  at M8 × K64, d 32 (residual k-means codebooks);
- T: ``build_index`` of a warm-started ``LightLT`` and a 32-cell IVF build,
  8 192 rows at M8 × K128, d 64;
- Z: the same at M8 × K64, d 32.

Each block runs clean (its median is the block), then instrumented, and its
time is split six ways:

- GEMM: inside ``np.matmul`` (every level GEMM of the encodes and k-means);
- select: the compiled pick — scores, argmin / argmax, minima — timed by
  replaying each compiled select call that moves row state without it;
- update: the rest of those calls (residual, running decode, next DSQ input);
- decode: inside ``adc.reconstruct`` (the compiled row decode, or NumPy's
  gather and sum) — the norms of supplied codes and the IVF sample;
- kmeans: inside k-means' seeding (``_seed_rows``) and update-step sums
  (``_cluster_sums``, the compiled cluster-sum pass or NumPy's sort, gather
  and slice sums); its assignment passes are GEMM and select;
- other: the instrumented block less the five (the embed, Python, checks,
  norms, layouts).

Prints a header naming the kernel that served and, for the compiled one,
each hot kernel's entry address mod 64 (``search_u8``, ``search_cells_u8``,
``select_rows``, ``decode_u8``, ``cluster_sums``): an edit anywhere in
``native.c`` moves them, and a block's time can move with the alignment
alone. Then one line per workload: the clean block and the six stage
medians (ms), and their sum as a share of the clean block. Without a
compiled kernel the select and update columns read 0 and the NumPy select
passes land in "other"; decode and kmeans time whichever path runs.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro import native
from repro.core.model import LightLT, LightLTConfig
from repro.core.warmstart import residual_kmeans_codebooks, warm_start_codebooks
from repro.retrieval.engine import ShardedIndex
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.ivf import IVFIndex

#: ``select_rows`` argument positions of the row state a replay leaves out:
#: book, target, recon, emb, x.
_STATE = (11, 13, 14, 16, 17)

#: Functions timed as columns of their own: (module, name, column). The
#: decode is looked up by name in each module that imported it.
_TIMED = [
    (importlib.import_module(module), name, column) for module, name, column in (
        ("repro.retrieval.adc", "reconstruct", "decode"),
        ("repro.retrieval.index", "reconstruct", "decode"),
        ("repro.retrieval.ivf", "reconstruct", "decode"),
        ("repro.cluster.kmeans", "_seed_rows", "kmeans"),
        ("repro.cluster.kmeans", "_cluster_sums", "kmeans"),
    )
]

COLUMNS = ("GEMM", "select", "update", "decode", "kmeans", "other")


def clustered(seed: int, n: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(40, dim)) * 3.0
    return means[rng.integers(40, size=n)] + rng.normal(size=(n, dim))


def f_block():
    rows = clustered(0, 4096 + 16_384, 32)
    codebooks = residual_kmeans_codebooks(rows[:4096], 8, 64, rng=0, max_iterations=10)
    return lambda: ShardedIndex(QuantizedIndex.build(codebooks, rows[4096:]), 1)


def model_block(seed: int, dim: int, k_words: int):
    rows = clustered(seed, 4096 + 8192, dim)
    model = LightLT(LightLTConfig(
        input_dim=dim, num_classes=100, embed_dim=dim, num_codebooks=8, num_codewords=k_words,
    ))
    warm_start_codebooks(model, rows[:4096], rng=seed, max_iterations=4)
    model.eval()
    return lambda: IVFIndex.build(
        model.build_index(rows[4096:]), 32, nprobe=8, train_sample=8192,
        kmeans_iterations=10, seed=seed,
    )


BLOCKS = {"F": f_block, "T": lambda: model_block(1, 64, 128), "Z": lambda: model_block(2, 32, 64)}


class Stages:
    """Wraps ``np.matmul``, the kernel's select entry and the :data:`_TIMED`
    functions with clocks."""

    def __init__(self, kernel) -> None:
        self.gemm = self.call = self.pick = self.replay = 0.0
        self.columns = dict.fromkeys((column for *_, column in _TIMED), 0.0)
        self._matmul, self._kernel = np.matmul, kernel
        self._select = None if kernel is None else kernel._select
        self._originals = [getattr(module, name) for module, name, _ in _TIMED]

    def timed(self, function, column: str):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.columns[column] += time.perf_counter() - start

        return run

    def matmul(self, *args, **kwargs):
        start = time.perf_counter()
        out = self._matmul(*args, **kwargs)
        self.gemm += time.perf_counter() - start
        return out

    def select(self, *args):
        start = time.perf_counter()
        moves = any(args[i] is not None for i in _STATE)
        if moves:
            picked = list(args)
            for i in _STATE:
                picked[i] = None
            self._select(*picked)  # rewrites the same codes, scores and minima
        mid = time.perf_counter()
        self._select(*args)
        end = time.perf_counter()
        self.call += end - mid
        self.pick += (mid - start) if moves else (end - mid)
        self.replay += mid - start

    def __enter__(self):
        np.matmul = self.matmul
        if self._kernel is not None:
            self._kernel._select = self.select
        for (module, name, column), function in zip(_TIMED, self._originals):
            setattr(module, name, self.timed(function, column))
        return self

    def __exit__(self, *exc):
        np.matmul = self._matmul
        if self._kernel is not None:
            self._kernel._select = self._select
        for (module, name, _), function in zip(_TIMED, self._originals):
            setattr(module, name, function)


def budget(block, repeats: int, kernel) -> dict:
    block()  # warm: first-call allocations and the kernel's load
    clean, stages = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        block()
        clean.append(time.perf_counter() - start)
        with Stages(kernel) as s:
            start = time.perf_counter()
            block()
            total = time.perf_counter() - start - s.replay
        decode, fit = s.columns["decode"], s.columns["kmeans"]
        stages.append((
            s.gemm, s.pick, s.call - s.pick, decode, fit,
            total - s.gemm - s.call - decode - fit,
        ))
    medians = np.median(np.array(stages) * 1e3, axis=0)
    return {"block": float(np.median(clean) * 1e3), **dict(zip(COLUMNS, medians.tolist()))}


#: The compiled entries the blocks (and the served search) spend their time in.
_HOT = ("search_u8", "search_cells_u8", "select_rows", "decode_u8", "cluster_sums")


def alignment(kernel) -> str:
    """Each hot entry's address mod 64: where it starts in a cache line."""
    return ", ".join(
        f"{name} @{ctypes.cast(getattr(kernel._lib, name), ctypes.c_void_p).value % 64}"
        for name in _HOT
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    kernel = native.load()
    served = f"c ({alignment(kernel)} mod 64)" if kernel else "numpy"
    print(f"kernel: {served}; medians of {args.repeats}, ms")
    for name, make in BLOCKS.items():
        b = budget(make(), args.repeats, kernel)
        parts = " + ".join(f"{column} {b[column]:.2f}" for column in COLUMNS)
        share = 100 * sum(b[column] for column in COLUMNS) / b["block"]
        print(f"{name}: block {b['block']:.2f} = {parts} (sum {share:.1f} % of the block)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
