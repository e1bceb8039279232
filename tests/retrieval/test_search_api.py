"""Tests for the unified SearchRequest/SearchResult API.

Covers the request dataclass's validation, the routing of every search
surface through ``serve``, and the loud ``ValueError`` for ``nprobe``
without an IVF layer (previously a silent no-op). The cross-surface
contract table lives in ``test_surface_contract.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.retrieval import (
    IVFIndex,
    QuantizedIndex,
    SearchRequest,
    SearchResult,
)
from repro.retrieval.engine import QueryEngine


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(0)
    codebooks = rng.normal(size=(3, 16, 8))
    index = QuantizedIndex.build(codebooks, rng.normal(size=(150, 8)))
    return index, rng.normal(size=(7, 8))


class TestSearchRequest:
    def test_single_vector_promoted_to_batch(self):
        request = SearchRequest(queries=np.zeros(5))
        assert request.queries.shape == (1, 5)
        assert request.n_queries == 1 and request.dim == 5

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="queries"):
            SearchRequest(queries=np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="k"):
            SearchRequest(queries=np.zeros(3), k=-1)
        with pytest.raises(ValueError, match="nprobe"):
            SearchRequest(queries=np.zeros(3), nprobe=-2)
        with pytest.raises(ValueError, match="deadline_s"):
            SearchRequest(queries=np.zeros(3), deadline_s=0.0)

    def test_result_width(self):
        result = SearchResult(
            indices=np.zeros((2, 4), dtype=np.int64),
            distances=np.zeros((2, 4)),
            k=4,
        )
        assert len(result) == 2 and result.width == 4


class TestIndexSurface:
    def test_request_matches_legacy_array_path(self, corpus):
        index, queries = corpus
        legacy = index.search(queries, k=10)
        result = index.search(SearchRequest(queries=queries, k=10))
        assert isinstance(result, SearchResult)
        assert result.source == "serial-adc"
        assert np.array_equal(result.indices, legacy)
        assert result.distances.shape == legacy.shape

    def test_kwargs_alongside_request_rejected(self, corpus):
        index, queries = corpus
        with pytest.raises(TypeError, match="SearchRequest"):
            index.search(SearchRequest(queries=queries, k=5), k=5)

    def test_engine_hint_in_request_does_not_warn(self, corpus):
        import warnings

        index, queries = corpus
        with QueryEngine(index, parallel="never") as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                result = index.search(
                    SearchRequest(queries=queries, k=10, engine=engine)
                )
        assert np.array_equal(result.indices, index.search(queries, k=10))

    def test_nprobe_without_ivf_raises(self, corpus):
        """The old silent no-op is now a loud error, on every form."""
        index, queries = corpus
        with pytest.raises(ValueError, match="nprobe"):
            index.search(SearchRequest(queries=queries, k=5, nprobe=4))
        with QueryEngine(index, parallel="never") as engine:
            with pytest.raises(ValueError, match="nprobe|ivf"):
                index.search(
                    SearchRequest(queries=queries, k=5, nprobe=4, engine=engine)
                )


class TestEngineSurface:
    def test_request_round_trip(self, corpus):
        index, queries = corpus
        with QueryEngine(index, parallel="never") as engine:
            result = engine.search(SearchRequest(queries=queries, k=10))
            assert isinstance(result, SearchResult)
            assert np.array_equal(result.indices, index.search(queries, k=10))

    def test_plain_array_path_stays_silent(self, corpus):
        import warnings

        index, queries = corpus
        with QueryEngine(index, parallel="never") as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                ranked = engine.search(queries, k=5)
        assert ranked.shape == (len(queries), 5)


class TestIVFSurface:
    def test_request_and_legacy_agree(self, corpus):
        index, queries = corpus
        ivf = IVFIndex.build(index, num_cells=6)
        result = ivf.search(SearchRequest(queries=queries, k=10, nprobe=6))
        array_form, _ = ivf.search_with_distances(queries, k=10, nprobe=6)
        assert np.array_equal(result.indices, array_form)
        assert result.source == "ivf"


class TestEncoderField:
    """SearchRequest.encoder: honoured by the daemon, an error elsewhere."""

    def test_modes_accepted(self):
        for mode in (None, "full", "light"):
            assert SearchRequest(queries=np.zeros(5), encoder=mode).encoder == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="encoder"):
            SearchRequest(queries=np.zeros(5), encoder="medium")

    def test_embedding_surfaces_reject_encoder_requests(self, corpus):
        """Hints a surface can't honour are errors: the index, engine, and
        IVF layer scan embeddings and have no encoder to apply."""
        index, queries = corpus
        request = SearchRequest(queries=queries, k=5, encoder="light")
        with pytest.raises(ValueError, match="encoder"):
            index.serve(request)
        with QueryEngine(index, parallel="never") as engine:
            with pytest.raises(ValueError, match="encoder"):
                engine.serve(request)
        ivf = IVFIndex.build(index, num_cells=8)
        with pytest.raises(ValueError, match="encoder"):
            ivf.serve(request)
