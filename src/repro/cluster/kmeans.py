"""Lloyd's k-means with k-means++ seeding, in algebraic form.

Called most by the IVF coarse quantizer (:meth:`repro.retrieval.ivf.
IVFIndex.build` — every index build and every ``MutableIndex`` compaction
trains one), and by the Product Quantization baselines (PQ/OPQ codebook
learning), codebook warm start for the deep quantizers, and the residual
quantization baseline.

Every distance is ``‖x‖² − 2 x·c + ‖c‖²`` with ``‖x‖²`` computed once per
fit, so a k-means++ step is one GEMV and an assignment pass is one
``(rows, k)`` GEMM per row chunk whose row minima are also the inertia —
no ``(x − c)²`` matrix is ever formed. Sums are reassociated against the
difference form, so results agree with it to rounding rather than bit for
bit; ``tests/cluster/reference_kmeans.py`` keeps the difference form as the
oracle. Scratch is bounded by :data:`SCRATCH_CELLS` whatever ``n`` and
``k`` are (plus one ``(k, d)`` block of partial sums in the update step).

Two passes run in the compiled kernel (:mod:`repro.native`) where it loads,
each doing the NumPy path's float operations in its order, so the results
are the same bits either way: the assignment pass's select after each GEMM
(:func:`_nearest`), and the update step's cluster sums
(:func:`_cluster_sums`). The NumPy paths are their reference and the
no-compiler path. Seeding stays in NumPy: its cost is the BLAS GEMV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import native
from repro.rng import make_rng

#: Float64 cells of scratch one pass may hold (8 MB): row chunks are sized
#: so a ``(rows, k)`` score block or a ``(rows, d)`` gathered block fits.
SCRATCH_CELLS = 1 << 20


@dataclass
class KMeansResult:
    """Outcome of a k-means run."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int


def _chunk_rows(width: int) -> int:
    """Rows per chunk so that ``rows × width`` cells fit the scratch budget."""
    return max(64, SCRATCH_CELLS // max(width, 1))


def _sq_norms(points: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", points, points)


def _seed_rows(
    points: np.ndarray, x_sq: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Rows of ``points`` chosen as seeds by D² sampling.

    Draws what ``rng.choice(n, p=d²/Σd²)`` draws — one uniform located in
    the running sum of the distances — without its per-call validation.
    """
    n, dim = points.shape
    rows = np.empty(num_clusters, dtype=np.intp)
    rows[0] = rng.integers(n)
    # The algebraic form is off by at most (2d + 4)·eps·(‖x‖² + ‖c‖²). A
    # distance under that bound is indistinguishable from zero and is set
    # to it: copies of a chosen seed keep no mass, and "every point is
    # already a seed" is seen exactly, as the difference form sees it.
    noise = ((2 * dim + 4) * np.finfo(np.float64).eps) * x_sq
    closest = np.full(n, np.inf)
    dist = np.empty(n)
    cdf = np.empty(n)
    above_noise = np.empty(n, dtype=bool)
    for j in range(1, num_clusters):
        seed = rows[j - 1]
        np.dot(points, -2.0 * points[seed], out=dist)
        dist += x_sq
        dist += x_sq[seed]
        np.add(noise, noise[seed], out=cdf)
        np.greater(dist, cdf, out=above_noise)
        dist *= above_noise
        np.minimum(closest, dist, out=closest)
        np.cumsum(closest, out=cdf)
        total = cdf[-1]
        if not np.isfinite(total):
            raise ValueError("points must be finite")
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            rows[j:] = rng.integers(n, size=num_clusters - j)
            break
        cdf /= total
        rows[j] = cdf.searchsorted(rng.random(), side="right")
    return rows


def kmeans_pp_init(
    points: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D² sampling."""
    points = np.asarray(points, dtype=np.float64)
    return points[_seed_rows(points, _sq_norms(points), num_clusters, rng)]


def _nearest(
    points: np.ndarray, centroids: np.ndarray, minima: np.ndarray | None = None
) -> np.ndarray:
    """Nearest centroid of every point, one GEMM per row chunk.

    ``minima``, when given, receives each row's smallest ``‖c‖² − 2 x·c``:
    the squared distance to the assigned centroid, less ``‖x‖²``. After each
    GEMM the compiled select pass (:meth:`repro.native.Kernel.select_rows`)
    adds ``‖c‖²``, takes the first minimum and reads it off in one sweep;
    without the compiled kernel the NumPy passes below do, to the same bits.
    """
    n = len(points)
    # |x - c|^2 = |x|^2 - 2 x·c + |c|^2 ; |x|^2 is constant per row.
    c_sq = (centroids**2).sum(axis=1)
    # Scaling by −2 is exact, so folding it into the GEMM's small operand
    # leaves every score the bits of ``c_sq − 2.0 * (points @ centroids.T)``.
    scaled_t = (-2.0 * centroids).T
    assignments = np.empty(n, dtype=np.int64)
    rows = _chunk_rows(len(centroids))
    scores = np.empty((min(rows, n), len(centroids)))
    kernel = native.load() if n else None
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = scores[: hi - lo]
        np.matmul(points[lo:hi], scaled_t, out=block)
        if kernel is not None:
            kernel.select_rows(
                block, native.KMEANS, assignments[lo:hi], col=c_sq,
                minima=None if minima is None else minima[lo:hi],
            )
            continue
        block += c_sq
        nearest = block.argmin(axis=1)
        assignments[lo:hi] = nearest
        if minima is not None:
            minima[lo:hi] = block[np.arange(hi - lo), nearest]
    return assignments


def assign_to_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for every point (squared Euclidean)."""
    return _nearest(
        np.asarray(points, dtype=np.float64), np.asarray(centroids, dtype=np.float64)
    )


def _cluster_sums(
    points: np.ndarray, assignments: np.ndarray, num_clusters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate sums and sizes of every cluster.

    Rows are taken a :func:`_chunk_rows` chunk at a time. Within a chunk a
    cluster's rows add up in row order, as a masked ``mean`` adds them, into
    a partial sum that starts at ``+0.0``; the partial then adds into the
    cluster's sum. The compiled cluster-sum pass
    (:meth:`repro.native.Kernel.cluster_sums`) does exactly that, row by
    row, with no sort and no gathered copy. The NumPy path below — the
    reference, and the no-compiler path — gathers each chunk into cluster
    order once and sums every cluster's contiguous slice: ``O(n·d)`` work
    where one boolean mask per cluster costs ``O(n·k)`` (``np.add.reduceat``
    over the same grouping dispatches per row on axis 0 and ran 2.5x slower
    at 8 192 × 64, k = 32). At ``d = 1`` a slice's sum runs along the row
    axis, which NumPy sums pairwise, so NumPy sums there.
    """
    n, dim = points.shape
    rows = _chunk_rows(dim)
    kernel = native.load() if dim > 1 and n else None
    if kernel is not None:
        return kernel.cluster_sums(
            points, np.ascontiguousarray(assignments, dtype=np.int64), num_clusters, rows
        )
    sums = np.zeros((num_clusters, dim))
    counts = np.zeros(num_clusters, dtype=np.int64)
    grouped = np.empty((min(rows, n), dim))
    # A stable sort of 16-bit keys is a radix sort (5x faster here).
    keys = assignments.astype(np.uint16) if num_clusters <= 1 << 16 else assignments
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        order = np.argsort(keys[lo:hi], kind="stable")
        block = np.take(points[lo:hi], order, axis=0, out=grouped[: hi - lo], mode="clip")
        sizes = np.bincount(assignments[lo:hi], minlength=num_clusters)
        ends = np.cumsum(sizes)
        for cell in np.flatnonzero(sizes):
            sums[cell] += block[ends[cell] - sizes[cell] : ends[cell]].sum(axis=0)
        counts += sizes
    return sums, counts


def _worst_served_rows(
    points: np.ndarray, residuals: np.ndarray, count: int
) -> np.ndarray:
    """Rows of the ``count`` worst-served pairwise-distinct points, worst
    first; fewer when the data holds fewer distinct points."""
    order = np.argsort(-residuals, kind="stable")
    width = 2 * count
    while True:
        candidates = order[:width]
        _, first = np.unique(points[candidates], axis=0, return_index=True)
        if len(first) >= count or width >= len(order):
            return candidates[np.sort(first)[:count]]
        width *= 2


def kmeans(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator | int = 0,
    max_iterations: int = 50,
    tolerance: float = 1e-7,
) -> KMeansResult:
    """Run Lloyd's algorithm until convergence or ``max_iterations``.

    Empty clusters are re-seeded from the points farthest from their current
    centroid — the ``j``-th empty cluster at the ``j``-th worst-served
    distinct point, so clusters emptied together do not land on one point —
    which keeps all ``num_clusters`` codewords in use: important for
    quantizers, where a dead codeword wastes code space.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if num_clusters < 1:
        raise ValueError("num_clusters must be at least 1")
    if len(points) < num_clusters:
        raise ValueError(
            f"cannot form {num_clusters} clusters from {len(points)} points"
        )
    rng = make_rng(rng)
    x_sq = _sq_norms(points)
    centroids = points[_seed_rows(points, x_sq, num_clusters, rng)]
    # Squared distance of every point to its assigned centroid.
    residuals = np.empty(len(points))

    def assign() -> np.ndarray:
        assignments = _nearest(points, centroids, minima=residuals)
        np.add(residuals, x_sq, out=residuals)
        np.maximum(residuals, 0.0, out=residuals)
        return assignments

    assignments = assign()
    previous_inertia = np.inf
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        # Update step: mean of each cluster.
        sums, counts = _cluster_sums(points, assignments, num_clusters)
        live = counts > 0
        centroids[live] = sums[live] / counts[live, None]
        if not live.all():
            dead = np.flatnonzero(~live)
            rows = _worst_served_rows(points, residuals, len(dead))
            centroids[dead[: len(rows)]] = points[rows]
        assignments = assign()
        inertia = float(residuals.sum())
        converged = (
            np.isfinite(previous_inertia)
            and previous_inertia - inertia <= tolerance * max(previous_inertia, 1.0)
        )
        previous_inertia = inertia
        if converged:
            break
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=previous_inertia,
        iterations=iteration,
    )
