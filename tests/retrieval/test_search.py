"""Tests for exhaustive search and distance kernels."""

import numpy as np
import pytest

from repro.retrieval.search import (
    exhaustive_search,
    hamming_distances,
    rank_by_distance,
    squared_distances,
    topk_tie_stable,
)


class TestSquaredDistances:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        q, db = rng.normal(size=(7, 5)), rng.normal(size=(11, 5))
        direct = ((q[:, None] - db[None]) ** 2).sum(-1)
        assert np.allclose(squared_distances(q, db), direct)

    def test_non_negative_under_cancellation(self):
        q = np.full((1, 4), 1e8)
        assert (squared_distances(q, q) >= 0).all()


class TestHamming:
    def test_known_distances(self):
        a = np.array([[1, 1, 1, 1.0]])
        b = np.array([[1, 1, 1, 1.0], [-1, -1, -1, -1.0], [1, -1, 1, -1.0]])
        assert np.allclose(hamming_distances(a, b), [[0, 4, 2]])

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        codes = np.where(rng.random((6, 8)) > 0.5, 1.0, -1.0)
        d = hamming_distances(codes, codes)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)


class TestRanking:
    def test_full_ranking_sorted(self):
        distances = np.array([[3.0, 1.0, 2.0]])
        assert rank_by_distance(distances).tolist() == [[1, 2, 0]]

    def test_topk_matches_full_sort_prefix(self):
        rng = np.random.default_rng(2)
        distances = rng.random((5, 50))
        full = rank_by_distance(distances)
        top = rank_by_distance(distances, k=7)
        assert np.array_equal(full[:, :7], top)

    def test_k_larger_than_db(self):
        distances = np.array([[2.0, 1.0]])
        assert rank_by_distance(distances, k=10).shape == (1, 2)

    def test_exhaustive_search_correct_neighbor(self):
        db = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
        ranked = exhaustive_search(np.array([[0.9, 0.9]]), db)
        assert ranked[0, 0] == 2

    def test_exhaustive_search_batched_equals_unbatched(self):
        rng = np.random.default_rng(3)
        q, db = rng.normal(size=(10, 4)), rng.normal(size=(30, 4))
        assert np.array_equal(
            exhaustive_search(q, db, batch_size=3), exhaustive_search(q, db)
        )

    def test_topk_tie_stable_on_duplicate_distances(self):
        # Regression: the argpartition fast path used to order boundary ties
        # arbitrarily; ties must resolve to the lower database index, like
        # the full stable argsort.
        distances = np.array([[2.0, 1.0, 1.0, 1.0, 0.5]])
        assert rank_by_distance(distances, k=3).tolist() == [[4, 1, 2]]
        rng = np.random.default_rng(4)
        quantized = rng.integers(0, 3, size=(12, 40)).astype(np.float64)
        full = rank_by_distance(quantized)
        for k in (1, 7, 39):
            assert np.array_equal(rank_by_distance(quantized, k=k), full[:, :k])

    def test_empty_query_batch_keeps_column_convention(self):
        # Regression: an empty batch used to come back as shape (0, 0)
        # regardless of k, breaking concatenation with non-empty batches.
        db = np.zeros((30, 4))
        no_queries = np.empty((0, 4))
        assert exhaustive_search(no_queries, db, k=7).shape == (0, 7)
        assert exhaustive_search(no_queries, db).shape == (0, 30)
        assert exhaustive_search(no_queries, db, k=99).shape == (0, 30)
        assert exhaustive_search(no_queries, db, k=7).dtype == np.int64


class TestTopkBoundaryTies:
    """A k-th value duplicated outside the selection used to trigger a
    stable argsort of the whole row (10 ms on a 100k-wide row)."""

    @staticmethod
    def planted(width, k, dtype):
        # Distinct values, then the k-th smallest copied to far-apart columns:
        # ties inside, at and beyond the selection boundary.
        rng = np.random.default_rng(width)
        rows = rng.permutation(3 * width).reshape(3, width).astype(dtype)
        for row in rows:
            kth = np.partition(row, k - 1)[k - 1]
            row[rng.choice(width, size=6, replace=False)] = kth
        return rows

    @pytest.mark.parametrize("width", [500, 100_000], ids=["narrow", "wide"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_stable_argsort_without_sorting_the_row(
        self, width, dtype, monkeypatch
    ):
        k = 18
        distances = self.planted(width, k, dtype)
        want = np.argsort(distances, axis=1, kind="stable")[:, :k]
        sorted_widths = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            sorted_widths.append(np.shape(a)[-1])
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        indices, values = topk_tie_stable(distances, k)
        assert np.array_equal(indices, want)
        assert np.array_equal(values, np.take_along_axis(distances, want, axis=1))
        assert sorted_widths and max(sorted_widths) <= k

    def test_nan_rows_fall_back_to_argsort_order(self):
        # A minimum cannot order NaN, so the hierarchical path declines.
        rng = np.random.default_rng(0)
        distances = rng.random((2, 20_000))
        distances[0, [5, 9_000]] = np.nan
        want = np.argsort(distances, axis=1, kind="stable")[:, :10]
        assert np.array_equal(topk_tie_stable(distances, 10)[0], want)

    def test_mostly_infinite_wide_row(self):
        # Fewer finite groups than k: every +inf ties at the boundary.
        distances = np.full((1, 50_000), np.inf)
        distances[0, [40_000, 7, 123]] = [1.0, 2.0, 2.0]
        indices, values = topk_tie_stable(distances, 6)
        assert indices.tolist() == [[40_000, 7, 123, 0, 1, 2]]
        assert values.tolist() == [[1.0, 2.0, 2.0, np.inf, np.inf, np.inf]]
