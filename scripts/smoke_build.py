#!/usr/bin/env python
"""CI smoke test for the compiled build passes of index builds.

Builds the same indexes twice — once with the compiled kernel
(``repro.native``: the row-select pass, the row decode behind
``adc.reconstruct`` and the cluster-sum pass behind k-means' update step),
once on the NumPy paths they replace — and asserts the two are bit for bit
the same:

- F: residual k-means codebooks (M8 × K64, d 32), a ``QuantizedIndex`` that
  encodes and decodes its rows, and an IVF layout over it; then the same
  codebooks over 16 384 + 17 rows (a row count that is not a multiple of the
  compiled encode's row block) and over one row;
- T: a warm-started ``LightLT`` (M8 × K128, d 64) — ``build_index`` runs the
  DSQ encode and decodes the codes for their norms — and an IVF layout over
  a sample of the rows (assignment streams the decoded database through the
  quantizer), then over all of them (the benchmark's path: k-means' own
  assignments become the cells);
- Z: the same at M8 × K64, d 32;
- a k-means fit over more rows than one cluster-sum chunk.

Compared: codebooks, codes, stored norms, every array of the IVF layout
(centroids, cell offsets, codes, ids, norms) and the k-means centroids,
assignments, inertia and iteration count. Where no compiler exists the
NumPy paths run alone and the script says so. Budget: a few seconds. Run
from the repository root::

    python scripts/smoke_build.py
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro import native
from repro.cluster.kmeans import _chunk_rows, kmeans
from repro.core.model import LightLT, LightLTConfig
from repro.core.warmstart import residual_kmeans_codebooks, warm_start_codebooks
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.ivf import IVFIndex


def clustered(seed: int, n: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(40, dim)) * 3.0
    return means[rng.integers(40, size=n)] + rng.normal(size=(n, dim))


def layout(index: QuantizedIndex, seed: int, train_sample: int = 2048) -> list[np.ndarray]:
    ivf = IVFIndex.build(
        index, 16, nprobe=4, train_sample=train_sample, kmeans_iterations=6, seed=seed
    )
    return [
        index.codes, index.db_sq_norms,
        ivf.centroids, ivf.cell_offsets, ivf.codes_t, ivf.ids, ivf.norms64,
    ]


def build_f() -> list[np.ndarray]:
    rows = clustered(0, 6000, 32)
    codebooks = residual_kmeans_codebooks(rows[:2048], 8, 64, rng=0, max_iterations=6)
    return [codebooks, *layout(QuantizedIndex.build(codebooks, rows[2048:]), 0)]


def build_f_rows(n: int) -> list[np.ndarray]:
    rows = clustered(3, 2048 + n, 32)
    codebooks = residual_kmeans_codebooks(rows[:2048], 8, 64, rng=0, max_iterations=6)
    index = QuantizedIndex.build(codebooks, rows[2048:])
    return [codebooks, index.codes, index.db_sq_norms]


def build_model(seed: int, dim: int, k_words: int, train_sample: int = 2048) -> list[np.ndarray]:
    rows = clustered(seed, 4000, dim)
    model = LightLT(LightLTConfig(
        input_dim=dim, num_classes=10, embed_dim=dim, num_codebooks=8, num_codewords=k_words,
    ))
    warm_start_codebooks(model, rows[:1024], rng=seed, max_iterations=4)
    model.eval()
    index = model.build_index(rows[1024:])
    return [model.dsq.materialized_codebooks(), *layout(index, seed, train_sample)]


def fit_chunks(seed: int, dim: int) -> list[np.ndarray]:
    rows = clustered(seed, _chunk_rows(dim) + 4099, dim)
    fit = kmeans(rows, 24, rng=seed, max_iterations=4, tolerance=0.0)
    return [fit.centroids, fit.assignments, np.array([fit.inertia, fit.iterations])]


SHAPES = {
    "F": build_f,
    "F at 16 401 rows": lambda: build_f_rows(16_384 + 17),
    "F at one row": lambda: build_f_rows(1),
    "T": lambda: build_model(1, 64, 128),
    "Z": lambda: build_model(2, 32, 64),
    "T, whole-block IVF sample": lambda: build_model(1, 64, 128, train_sample=8192),
    "Z, whole-block IVF sample": lambda: build_model(2, 32, 64, train_sample=8192),
    "k-means over two cluster-sum chunks": lambda: fit_chunks(4, 32),
}


def main() -> int:
    compiled = native.load
    kernels = ["numpy"] if compiled() is None else ["c", "numpy"]
    for name, build in SHAPES.items():
        results = {}
        for kernel in kernels:
            native.load = compiled if kernel == "c" else (lambda: None)
            try:
                results[kernel] = build()
            finally:
                native.load = compiled
        want = results["numpy"]
        for kernel, got in results.items():
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == b.dtype and a.shape == b.shape, (name, kernel, i)
                assert a.tobytes() == b.tobytes(), f"{name}: {kernel} build differs from numpy (array {i})"
    if len(kernels) == 1:
        print("build passes: numpy only (no compiled kernel); F, T, Z and k-means built")
    else:
        print(
            "build passes: c == numpy at F (and at 16 401 rows and one row), T and Z"
            " (and over whole-block IVF samples), and k-means over two cluster-sum chunks"
            " (codebooks, codes, norms, IVF layouts, k-means fits)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
