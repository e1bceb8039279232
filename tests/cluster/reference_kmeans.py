"""The difference-form k-means this repo shipped until PR 21 — the oracle.

``repro.cluster.kmeans`` computes every distance algebraically
(``‖x‖² − 2 x·c + ‖c‖²``), draws k-means++ seeds from a running sum and
updates centroids by segment sums. This module keeps the loop version it
replaced — ``((x − c)²).sum()`` distances, ``rng.choice(p=)`` draws, one
boolean mask per cluster, a second distance pass for the inertia — so
``test_kmeans_oracle.py`` can require the same seeds, assignments and
iteration count and centroids/inertia equal to rounding. Its empty-cluster
re-seed is the old one (every cluster emptied in one iteration lands on the
same worst-served point); fixtures compared against it empty none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import make_rng


@dataclass
class KMeansResult:
    """Outcome of a k-means run."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int
    reseeds: int = 0  # empty clusters re-seeded along the way (oracle-side only)


def kmeans_pp_init(
    points: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D² sampling."""
    n = len(points)
    centroids = np.empty((num_clusters, points.shape[1]))
    first = rng.integers(n)
    centroids[0] = points[first]
    sq_dists = ((points - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, num_clusters):
        total = sq_dists.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            centroids[k:] = points[rng.integers(n, size=num_clusters - k)]
            break
        probabilities = sq_dists / total
        choice = rng.choice(n, p=probabilities)
        centroids[k] = points[choice]
        new_dists = ((points - centroids[k]) ** 2).sum(axis=1)
        np.minimum(sq_dists, new_dists, out=sq_dists)
    return centroids


def assign_to_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for every point (squared Euclidean)."""
    # |x - c|^2 = |x|^2 - 2 x·c + |c|^2 ; |x|^2 is constant per row.
    cross = points @ centroids.T
    c_sq = (centroids**2).sum(axis=1)
    return (c_sq - 2.0 * cross).argmin(axis=1)


def kmeans(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator | int = 0,
    max_iterations: int = 50,
    tolerance: float = 1e-7,
) -> KMeansResult:
    """Run Lloyd's algorithm until convergence or ``max_iterations``.

    Empty clusters are re-seeded from the points farthest from their current
    centroid, which keeps all ``num_clusters`` codewords in use — important
    for quantizers, where a dead codeword wastes code space.
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
    centroids = kmeans_pp_init(points, num_clusters, rng)
    assignments = assign_to_centroids(points, centroids)
    previous_inertia = np.inf
    iteration = 0
    reseeds = 0
    for iteration in range(1, max_iterations + 1):
        # Update step: mean of each cluster.
        for k in range(num_clusters):
            members = points[assignments == k]
            if len(members):
                centroids[k] = members.mean(axis=0)
            else:
                # Re-seed dead centroid at the worst-served point.
                residuals = ((points - centroids[assignments]) ** 2).sum(axis=1)
                centroids[k] = points[residuals.argmax()]
                reseeds += 1
        assignments = assign_to_centroids(points, centroids)
        inertia = float(((points - centroids[assignments]) ** 2).sum())
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
        reseeds=reseeds,
    )
