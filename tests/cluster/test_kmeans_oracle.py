"""The algebraic k-means against the difference-form loop it replaced.

``reference_kmeans`` is the implementation ``repro.cluster.kmeans`` had
until PR 21. The two reassociate their sums differently, so the contract is:
the same seed rows for the same ``rng``, the same assignments and iteration
count, the same ``rng`` state afterwards (callers draw from it next), and
centroids and inertia equal to ``rtol=1e-9``.
"""

import importlib
import tracemalloc

import numpy as np
import pytest

from repro.cluster.kmeans import assign_to_centroids, kmeans, kmeans_pp_init
from tests.cluster import reference_kmeans as reference

# ``repro.cluster`` re-exports the function under the module's name.
kmeans_module = importlib.import_module("repro.cluster.kmeans")


def blobs(seed: int, n: int, dim: int, centers: int, long_tail: bool = False):
    """Gaussian blobs; ``long_tail`` gives them Zipf sizes (head ≫ tail)."""
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(size=(centers, dim)) * 4.0
    if long_tail:
        weights = 1.0 / np.arange(1, centers + 1) ** 1.2
        labels = rng.choice(centers, size=n, p=weights / weights.sum())
    else:
        labels = rng.integers(centers, size=n)
    return prototypes[labels] + rng.normal(size=(n, dim))


def duplicated(seed: int, n: int, dim: int) -> np.ndarray:
    """Every distinct point three times over, shuffled."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.repeat(blobs(seed, n // 3, dim, 6), 3, axis=0))


FIXTURES = {
    "blobs-d64-k32": (lambda: blobs(0, 600, 64, 10), 32),
    "blobs-d64-k2": (lambda: blobs(1, 400, 64, 5), 2),
    "blobs-d64-k1": (lambda: blobs(2, 300, 64, 4), 1),
    "blobs-d64-k=n": (lambda: blobs(3, 48, 64, 6), 48),
    "blobs-d1-k2": (lambda: blobs(4, 500, 1, 5), 2),
    "blobs-d1-k32": (lambda: blobs(5, 800, 1, 40), 32),
    "blobs-d1-k=n": (lambda: blobs(6, 40, 1, 4), 40),
    "long-tail-d64-k32": (lambda: blobs(7, 2000, 64, 40, long_tail=True), 32),
    "long-tail-d1-k2": (lambda: blobs(8, 1500, 1, 12, long_tail=True), 2),
    "duplicated-d64-k32": (lambda: duplicated(9, 900, 64), 32),
    "duplicated-d1-k2": (lambda: duplicated(10, 300, 1), 2),
}


@pytest.fixture(params=sorted(FIXTURES))
def case(request):
    make, k = FIXTURES[request.param]
    return make(), k


class TestAgainstTheLoopOracle:
    def test_same_seed_rows_for_the_same_rng(self, case):
        points, k = case
        ours_rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        ours = kmeans_pp_init(points, k, ours_rng)
        oracle = reference.kmeans_pp_init(points, k, oracle_rng)
        assert np.array_equal(ours, oracle)  # seeds are copies of rows: exact
        assert ours_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_fit_agrees(self, case):
        points, k = case
        ours_rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        ours = kmeans(points, k, rng=ours_rng, max_iterations=25)
        oracle = reference.kmeans(points, k, rng=oracle_rng, max_iterations=25)
        # The oracle re-seeds emptied clusters differently (the bug
        # TestEmptyClusterReseed pins); these fixtures empty none.
        assert oracle.reseeds == 0
        assert np.array_equal(ours.assignments, oracle.assignments)
        assert ours.iterations == oracle.iterations
        np.testing.assert_allclose(ours.centroids, oracle.centroids, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(ours.inertia, oracle.inertia, rtol=1e-9, atol=1e-9)
        assert ours_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_inertia_never_increases(self, case):
        points, k = case
        inertias = [
            kmeans(points, k, rng=5, max_iterations=t, tolerance=0.0).inertia
            for t in range(1, 9)
        ]
        for before, after in zip(inertias, inertias[1:]):
            assert after <= before * (1 + 1e-12) + 1e-12

    def test_every_point_already_a_seed(self):
        # Fewer distinct points than clusters: D² mass runs out and the rest
        # are drawn uniformly — one ``integers`` call, as in the oracle.
        points = np.repeat(blobs(12, 3, 64, 3), 7, axis=0)
        ours_rng, oracle_rng = np.random.default_rng(2), np.random.default_rng(2)
        ours = kmeans_pp_init(points, 6, ours_rng)
        oracle = reference.kmeans_pp_init(points, 6, oracle_rng)
        assert np.array_equal(ours, oracle)
        assert ours_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestRowChunks:
    def test_assign_equals_brute_force_across_a_chunk_boundary(self, monkeypatch):
        rng = np.random.default_rng(2)
        centroids = rng.normal(size=(5, 4))
        # 64-row chunks: 193 rows are three full chunks and a row over.
        monkeypatch.setattr(kmeans_module, "SCRATCH_CELLS", 64 * len(centroids))
        points = rng.normal(size=(193, 4))
        brute = ((points[:, None, :] - centroids[None]) ** 2).sum(-1).argmin(axis=1)
        assert np.array_equal(assign_to_centroids(points, centroids), brute)
        assert np.array_equal(
            assign_to_centroids(points, centroids),
            reference.assign_to_centroids(points, centroids),
        )

    def test_fit_agrees_when_every_pass_is_chunked(self, monkeypatch):
        points = blobs(13, 700, 8, 9)
        whole = kmeans(points, 12, rng=1, max_iterations=6, tolerance=0.0)
        monkeypatch.setattr(kmeans_module, "SCRATCH_CELLS", 64 * 8)
        chunked = kmeans(points, 12, rng=1, max_iterations=6, tolerance=0.0)
        assert np.array_equal(chunked.assignments, whole.assignments)
        np.testing.assert_allclose(chunked.centroids, whole.centroids, rtol=1e-12)
        np.testing.assert_allclose(chunked.inertia, whole.inertia, rtol=1e-12)

    def test_scratch_is_bounded_by_the_row_chunk_not_n_times_k(self):
        n, dim, k = 20_000, 16, 512
        points = blobs(14, n, dim, 64)
        tracemalloc.start()
        try:
            kmeans(points, k, rng=0, max_iterations=2, tolerance=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk_bytes = kmeans_module.SCRATCH_CELLS * 8
        assert n * k * 8 > 8 * chunk_bytes  # one (n, k) block alone is 82 MB
        assert peak < 2 * chunk_bytes


class TestEmptyClusterReseed:
    def test_clusters_emptied_together_land_on_distinct_points(self, monkeypatch):
        points = blobs(15, 400, 6, 8)

        def coincident_seeds(points, x_sq, num_clusters, rng):
            rows = np.arange(num_clusters)
            rows[:3] = 0  # three seeds on one point: two clusters start empty
            return rows

        monkeypatch.setattr(kmeans_module, "_seed_rows", coincident_seeds)
        first = kmeans(points, 6, rng=0, max_iterations=1)
        assert len(np.unique(first.centroids, axis=0)) == 6
        assert np.bincount(first.assignments, minlength=6).min() > 0
        # ...and they stay in use: nothing empties on the next iteration.
        second = kmeans(points, 6, rng=0, max_iterations=2)
        assert len(np.unique(second.centroids, axis=0)) == 6
        assert np.bincount(second.assignments, minlength=6).min() > 0

    def test_fewer_distinct_points_than_empty_clusters(self):
        points = np.ones((20, 3))
        result = kmeans(points, 3, rng=0)
        assert np.isfinite(result.centroids).all()
        assert result.inertia == 0.0
