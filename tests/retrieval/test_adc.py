"""Tests for asymmetric distance computation (Eqn. 24)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval.adc import (
    adc_distances,
    build_lookup_tables,
    compact_code_dtype,
    encode_nearest,
    reconstruct,
    validate_codes,
)
from repro.retrieval.search import squared_distances


def random_setup(seed: int = 0, n: int = 20, m: int = 3, k: int = 8, d: int = 6):
    rng = np.random.default_rng(seed)
    codebooks = rng.normal(size=(m, k, d))
    features = rng.normal(size=(n, d))
    queries = rng.normal(size=(5, d))
    return codebooks, features, queries


class TestReconstruct:
    def test_additive_sum(self):
        codebooks, _, _ = random_setup()
        codes = np.array([[0, 1, 2], [3, 3, 3]])
        recon = reconstruct(codes, codebooks)
        expected0 = codebooks[0, 0] + codebooks[1, 1] + codebooks[2, 2]
        assert np.allclose(recon[0], expected0)

    @pytest.mark.parametrize("m, d", [(3, 6), (9, 1), (8, 64)])
    def test_row_chunks_keep_the_whole_matrix_bits(self, monkeypatch, m, d):
        # Stored norms are sums over these rows: decoding in row chunks must
        # leave every bit of the one-piece gather-and-sum — also at d = 1,
        # M >= 8, where NumPy sums the level axis pairwise.
        rng = np.random.default_rng(3)
        codebooks = rng.normal(size=(m, 16, d))
        codes = rng.integers(16, size=(301, m))
        whole = codebooks[np.arange(m)[None, :], codes].sum(axis=1)
        monkeypatch.setattr("repro.retrieval.adc.RECONSTRUCT_CELLS", 64 * m * d)
        assert np.array_equal(reconstruct(codes, codebooks), whole)  # 64-row chunks
        assert reconstruct(codes[:0], codebooks).shape == (0, d)

    def test_code_validation(self):
        codebooks, _, _ = random_setup()
        with pytest.raises(ValueError):
            reconstruct(np.array([[0, 1]]), codebooks)  # wrong M
        with pytest.raises(ValueError):
            reconstruct(np.array([[0, 1, 99]]), codebooks)  # out of range

    def test_validate_codes_casts(self):
        # Every input lands in the one storage dtype...
        codes = validate_codes(np.array([[0.0, 1.0]]), 2, 4)
        assert codes.dtype == compact_code_dtype(4) == np.uint8
        assert validate_codes(np.array([[0, 299]]), 2, 300).dtype == np.uint16
        # ... and what is already there is handed back, not copied.
        assert validate_codes(codes, 2, 4) is codes

    def test_validate_codes_rejects_fractional_floats(self):
        # Regression: fractional codeword ids were silently floored, hiding
        # caller bugs (e.g. passing distances instead of ids).
        with pytest.raises(ValueError, match="integer lattice"):
            validate_codes(np.array([[0.5, 1.0]]), 2, 4)
        with pytest.raises(ValueError, match="integer lattice"):
            validate_codes(np.array([[0.0, 1.999]]), 2, 4)

    def test_validate_codes_rejects_non_numeric_dtypes(self):
        with pytest.raises(ValueError, match="integer array"):
            validate_codes(np.array([["0", "1"]]), 2, 4)


class TestADCEquivalence:
    def test_adc_equals_exact_distance_to_reconstruction(self):
        codebooks, features, queries = random_setup()
        codes = encode_nearest(features, codebooks)
        adc = adc_distances(queries, codes, codebooks)
        exact = squared_distances(queries, reconstruct(codes, codebooks))
        assert np.allclose(adc, exact, atol=1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_adc_equivalence_random(self, seed):
        codebooks, features, queries = random_setup(seed=seed, n=12, m=2, k=5, d=4)
        codes = encode_nearest(features, codebooks)
        adc = adc_distances(queries, codes, codebooks)
        exact = squared_distances(queries, reconstruct(codes, codebooks))
        assert np.allclose(adc, exact, atol=1e-6)

    def test_precomputed_norms_match(self):
        codebooks, features, queries = random_setup()
        codes = encode_nearest(features, codebooks)
        norms = (reconstruct(codes, codebooks) ** 2).sum(axis=1)
        with_norms = adc_distances(queries, codes, codebooks, db_sq_norms=norms)
        without = adc_distances(queries, codes, codebooks)
        assert np.allclose(with_norms, without)


class TestEncodeNearest:
    def test_residual_reduces_error_per_level(self):
        # Monotone error decrease holds for *fitted* codebooks (random ones
        # can overshoot the residual).
        from repro.core.warmstart import residual_kmeans_codebooks

        _, features, _ = random_setup(n=200)
        codebooks = residual_kmeans_codebooks(features, 3, 8, rng=0)
        errors = []
        for m in range(1, 4):
            codes = encode_nearest(features, codebooks[:m])
            recon = reconstruct(codes, codebooks[:m])
            errors.append(((features - recon) ** 2).mean())
        assert errors[0] >= errors[1] >= errors[2]

    def test_residual_beats_independent(self):
        from repro.core.warmstart import residual_kmeans_codebooks

        _, features, _ = random_setup(n=200)
        codebooks = residual_kmeans_codebooks(features, 3, 8, rng=0)
        res_codes = encode_nearest(features, codebooks, residual=True)
        ind_codes = encode_nearest(features, codebooks, residual=False)
        res_err = ((features - reconstruct(res_codes, codebooks)) ** 2).mean()
        ind_err = ((features - reconstruct(ind_codes, codebooks)) ** 2).mean()
        assert res_err <= ind_err

    def test_codes_in_range(self):
        codebooks, features, _ = random_setup()
        codes = encode_nearest(features, codebooks)
        assert codes.min() >= 0 and codes.max() < codebooks.shape[1]


class TestLookupTables:
    def test_table_values_are_inner_products(self):
        codebooks, _, queries = random_setup()
        tables = build_lookup_tables(queries, codebooks)
        assert tables.shape == (5, 3, 8)
        assert np.allclose(tables[2, 1, 3], queries[2] @ codebooks[1, 3])
