"""Tests for the QuantizedIndex."""

import numpy as np
import pytest

from repro.retrieval import index as index_module
from repro.retrieval.adc import encode_nearest
from repro.retrieval.index import QuantizedIndex
from repro.retrieval.search import exhaustive_search


def build_index(seed: int = 0, n: int = 60, with_labels: bool = True):
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(3, 16, 8))
    database = rng.normal(size=(n, 8))
    labels = rng.integers(0, 4, size=n) if with_labels else None
    return QuantizedIndex.build(codebooks, database, labels=labels), database


class TestConstruction:
    def test_build_encodes_database(self):
        index, database = build_index()
        assert len(index) == len(database)
        assert index.codes.shape == (60, 3)
        assert index.num_codebooks == 3
        assert index.num_codewords == 16
        assert index.dim == 8

    def test_norms_match_reconstructions(self):
        index, _ = build_index()
        recon = index.reconstructions()
        assert np.allclose(index.db_sq_norms, (recon**2).sum(axis=1))

    def test_invalid_shapes(self):
        rng = np.random.default_rng(1)
        codebooks = rng.normal(size=(2, 4, 3))
        with pytest.raises(ValueError):
            QuantizedIndex(codebooks, np.zeros((5, 2), dtype=int), np.zeros(4))
        with pytest.raises(ValueError):
            QuantizedIndex(
                codebooks,
                np.zeros((5, 2), dtype=int),
                np.zeros(5),
                labels=np.zeros(4, dtype=int),
            )
        with pytest.raises(ValueError):
            QuantizedIndex(np.zeros((4, 3)), np.zeros((5, 2), dtype=int), np.zeros(5))


class TestSearch:
    def test_search_matches_exhaustive_over_reconstructions(self):
        index, _ = build_index()
        rng = np.random.default_rng(2)
        queries = rng.normal(size=(9, 8))
        via_index = index.search(queries)
        via_exact = exhaustive_search(queries, index.reconstructions())
        assert np.array_equal(via_index, via_exact)

    def test_topk_shape(self):
        index, _ = build_index()
        result = index.search(np.zeros((4, 8)), k=5)
        assert result.shape == (4, 5)

    def test_search_labels(self):
        index, _ = build_index()
        labels = index.search_labels(np.zeros((2, 8)), k=3)
        assert labels.shape == (2, 3)

    def test_search_labels_without_labels_raises(self):
        index, _ = build_index(with_labels=False)
        with pytest.raises(RuntimeError):
            index.search_labels(np.zeros((1, 8)))

    def test_explicit_codes_are_respected(self):
        rng = np.random.default_rng(3)
        codebooks = rng.normal(size=(2, 8, 4))
        database = rng.normal(size=(10, 4))
        codes = encode_nearest(database, codebooks)
        built = QuantizedIndex.build(codebooks, database, codes=codes)
        assert np.array_equal(built.codes, codes)


class TestReferenceSearchBlocks:
    @pytest.mark.parametrize("k", [1, 7, None])
    @pytest.mark.parametrize("block_queries", [1, 7])
    def test_query_blocks_answer_as_one_block(self, monkeypatch, k, block_queries):
        index, _ = build_index(n=60)
        queries = np.random.default_rng(3).normal(size=(16, 8))
        whole = index.search_with_distances(queries, k)
        monkeypatch.setattr(index_module, "SEARCH_BLOCK_ELEMENTS", 60 * block_queries)
        blocked = index.search_with_distances(queries, k)
        for a, b in zip(blocked, whole):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        # An empty batch keeps its shape through the blocks.
        empty = index.search_with_distances(np.empty((0, 8)), k)
        assert empty[0].shape == empty[1].shape == (0, 60 if k is None else k)


class TestBuildObservability:
    def test_encode_time_observed_only_when_encoding(self):
        # Regression: build() used to observe index.encode.time_s even when
        # codes were supplied, polluting the histogram with near-zero
        # samples that dragged its percentiles down.
        from repro import obs
        from repro.obs import names as metric_names

        rng = np.random.default_rng(4)
        codebooks = rng.normal(size=(2, 8, 4))
        database = rng.normal(size=(10, 4))
        codes = encode_nearest(database, codebooks)
        try:
            with obs.observed() as handle:
                QuantizedIndex.build(codebooks, database, codes=codes)
                encode_hist = handle.registry.histogram(
                    metric_names.INDEX_ENCODE_TIME
                )
                build_hist = handle.registry.histogram(
                    metric_names.INDEX_BUILD_TIME
                )
                assert encode_hist.count == 0
                assert build_hist.count == 1
                QuantizedIndex.build(codebooks, database)
                assert encode_hist.count == 1
                assert build_hist.count == 2
        finally:
            obs.disable_observability()
