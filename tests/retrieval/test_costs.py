"""Tests for the §IV space/inference cost model."""

import numpy as np
import pytest

from repro.retrieval.costs import (
    COST_FEATURE_NAMES,
    CostModel,
    SearchConfig,
    asymptotic_compression_ratio,
    cost_features,
    efficiency_sweep,
    serving_memory_bytes,
    storage_cost,
    stored_code_bytes_per_item,
    theoretical_speedup,
)


class TestStorageCost:
    def test_formula_components(self):
        cost = storage_cost(n_db=1000, dim=64, num_codebooks=4, num_codewords=256)
        assert cost.codebook_bytes == 4 * 256 * 4 * 64
        assert cost.code_bytes == 1000 * 4 * 8 / 8  # log2(256) = 8 bits
        assert cost.norm_bytes == 4 * 1000
        assert cost.continuous_bytes == 4 * 1000 * 64

    def test_paper_scale_compression_ratio(self):
        # QBA full database: §V-E reports a 240x compression ratio.
        cost = storage_cost(n_db=642_000, dim=768, num_codebooks=4, num_codewords=256)
        assert cost.compression_ratio == pytest.approx(240, rel=0.05)

    def test_tiny_database_may_not_compress(self):
        # 1/1000 of QBA (~642 rows): codebooks dominate; ratio < 1 (§V-E).
        cost = storage_cost(n_db=642, dim=768, num_codebooks=4, num_codewords=256)
        assert cost.compression_ratio < 1.0

    def test_asymptotic_limit_bounds_finite_ratio(self):
        limit = asymptotic_compression_ratio(768, 4, 256)
        finite = storage_cost(10**7, 768, 4, 256).compression_ratio
        assert finite < limit
        assert finite == pytest.approx(limit, rel=0.05)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            storage_cost(0, 10, 4, 16)


class TestSpeedup:
    def test_grows_with_database(self):
        small = theoretical_speedup(1_000, 768, 4, 256)
        large = theoretical_speedup(1_000_000, 768, 4, 256)
        assert large > small

    def test_tiny_database_no_speedup(self):
        assert theoretical_speedup(642, 768, 4, 256) < 1.0

    def test_saturates_at_d_over_m(self):
        # As n -> inf, speedup -> d / M.
        huge = theoretical_speedup(10**9, 768, 4, 256)
        assert huge == pytest.approx(768 / 4, rel=0.01)


class TestEfficiencySweep:
    def test_sweep_shapes_and_monotonicity(self):
        rng = np.random.default_rng(0)
        codebooks = rng.normal(size=(4, 16, 16))
        database = rng.normal(size=(2000, 16))
        queries = rng.normal(size=(20, 16))
        measurements = efficiency_sweep(
            queries, database, codebooks, fractions=(0.01, 0.1, 1.0), repeats=1
        )
        assert [m.fraction for m in measurements] == [0.01, 0.1, 1.0]
        compressions = [m.measured_compression for m in measurements]
        assert compressions[0] < compressions[1] < compressions[2]
        theory = [m.theoretical_speedup for m in measurements]
        assert theory[0] < theory[1] < theory[2]
        assert all(m.measured_speedup > 0 for m in measurements)


class TestStoredByteAccounting:
    def test_power_of_256_matches_ideal(self):
        """K=256 packs exactly 8 bits per code: ideal == as-stored."""
        cost = storage_cost(1000, 32, 8, 256)
        assert cost.code_bytes == cost.code_bytes_stored
        assert cost.compression_ratio == pytest.approx(
            cost.compression_ratio_stored
        )

    def test_non_power_of_256_ideal_undercounts(self):
        """K=512 stores 9-bit ids in uint16 lanes: the fractional-bit
        accounting undercounts what the engine allocates."""
        cost = storage_cost(1000, 32, 8, 512)
        assert stored_code_bytes_per_item(8, 512) == 16  # 8 x uint16
        assert cost.code_bytes == pytest.approx(1000 * 8 * 9 / 8)
        assert cost.code_bytes_stored == 1000 * 16
        assert cost.code_bytes < cost.code_bytes_stored
        assert cost.compression_ratio > cost.compression_ratio_stored

    def test_asymptotic_ratio_stored_flag(self):
        ideal = asymptotic_compression_ratio(32, 8, 512)
        stored = asymptotic_compression_ratio(32, 8, 512, stored=True)
        assert stored < ideal
        assert stored == pytest.approx(4 * 32 / (16 + 4))
        # At a power of 256 the two accountings agree.
        assert asymptotic_compression_ratio(32, 8, 256) == pytest.approx(
            asymptotic_compression_ratio(32, 8, 256, stored=True)
        )


class TestSearchConfig:
    def _config(self, **overrides):
        defaults = dict(n_db=10_000, dim=32, num_codebooks=8,
                        num_codewords=256)
        defaults.update(overrides)
        return SearchConfig(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._config(n_db=0)
        with pytest.raises(ValueError):
            self._config(k=0)
        with pytest.raises(ValueError):
            self._config(workers=0)
        with pytest.raises(ValueError):
            self._config(nprobe=-1)

    def test_candidates_prune_with_nprobe(self):
        exhaustive = self._config()
        assert not exhaustive.uses_ivf
        assert exhaustive.candidates == 10_000
        ivf = self._config(num_cells=100, nprobe=10)
        assert ivf.uses_ivf
        assert ivf.candidates == pytest.approx(1_000)
        # nprobe beyond the cell count cannot probe more than everything.
        assert self._config(num_cells=4, nprobe=100).candidates == 10_000

    def test_code_dtype_follows_k(self):
        assert self._config(num_codewords=256).code_dtype == "uint8"
        assert self._config(num_codewords=512).code_dtype == "uint16"

    def test_effective_workers_mirror_engine_rules(self, monkeypatch):
        import repro.retrieval.costs as costs

        monkeypatch.setattr(costs.os, "cpu_count", lambda: 8)
        # Below the parallel work threshold the pool is not engaged.
        small = self._config(workers=4, num_shards=8)
        assert small.effective_workers(1) == 1
        # Enough scan work: capped by shards and the worker request.
        big = self._config(n_db=500_000, workers=2, num_shards=8)
        assert big.effective_workers(4) == 2
        # Fewer cores than requested workers: the machine caps the pool.
        monkeypatch.setattr(costs.os, "cpu_count", lambda: 1)
        assert big.effective_workers(4) == 1
        # The IVF path always scans in-process.
        ivf = self._config(n_db=500_000, workers=4, num_shards=8,
                           num_cells=64, nprobe=8)
        assert ivf.effective_workers(64) == 1


class TestCostModelFit:
    def _grid(self):
        configs = []
        for m, k_words in ((4, 64), (8, 256), (4, 512)):
            for workers, shards in ((1, 1), (4, 8)):
                configs.append(SearchConfig(
                    n_db=200_000, dim=32, num_codebooks=m,
                    num_codewords=k_words, workers=workers,
                    num_shards=shards,
                ))
            for nprobe in (1, 2, 4, 16, 32, 48):
                configs.append(SearchConfig(
                    n_db=200_000, dim=32, num_codebooks=m,
                    num_codewords=k_words, num_cells=64, nprobe=nprobe,
                ))
            for encoder in ("light", "full"):
                configs.append(SearchConfig(
                    n_db=200_000, dim=32, num_codebooks=m,
                    num_codewords=k_words, query_encoder=encoder,
                ))
        return configs

    def _latencies(self, configs, rng, noise=0.05):
        true = np.array([2e-5, 3e-9, 1.5e-9, 4e-7, 2.5e-9,
                         6e-8, 8e-9, 2e-9, 5e-9])
        assert len(true) == len(COST_FEATURE_NAMES)
        clean = np.array([cost_features(c) @ true for c in configs])
        return clean * rng.uniform(1 - noise, 1 + noise, size=len(clean))

    def test_fit_residuals_bounded_on_seeded_grid(self):
        """With 5% multiplicative noise the relative-least-squares fit
        recovers the model well inside the tuner's 25% acceptance bound,
        on the fitted points and on the held-out split alike."""
        configs = self._grid()
        latencies = self._latencies(configs, np.random.default_rng(7))
        model, report = CostModel.fit(
            configs, latencies, holdout_fraction=0.25, seed=7
        )
        assert report.n_points == len(configs)
        assert report.mean_rel_error < 0.05
        assert report.max_rel_error < 0.15
        assert report.holdout_n == round(0.25 * len(configs))
        assert report.holdout_mean_rel_error < 0.10
        assert report.holdout_max_rel_error < 0.25

    def test_fit_is_deterministic_for_fixed_inputs(self):
        configs = self._grid()
        latencies = self._latencies(configs, np.random.default_rng(3))
        first = CostModel.fit(configs, latencies, holdout_fraction=0.2,
                              seed=5)[1]
        second = CostModel.fit(configs, latencies, holdout_fraction=0.2,
                               seed=5)[1]
        assert first == second

    def test_predict_interpolates_unmeasured_config(self):
        """The point of the calibration: a config absent from the grid is
        priced within the acceptance bound."""
        configs = self._grid()
        rng = np.random.default_rng(11)
        latencies = self._latencies(configs, rng)
        model, _ = CostModel.fit(configs, latencies)
        unseen = SearchConfig(
            n_db=200_000, dim=32, num_codebooks=8, num_codewords=256,
            num_cells=64, nprobe=8,  # nprobe never measured
        )
        true = np.array([2e-5, 3e-9, 1.5e-9, 4e-7, 2.5e-9,
                         6e-8, 8e-9, 2e-9, 5e-9])
        want = float(cost_features(unseen) @ true)
        assert abs(model.predict(unseen) - want) / want < 0.25

    def test_fit_validation(self):
        configs = self._grid()[:4]
        with pytest.raises(ValueError, match="one latency per config"):
            CostModel.fit(configs, [1e-3] * 3)
        with pytest.raises(ValueError, match="at least 2"):
            CostModel.fit(configs[:1], [1e-3])
        with pytest.raises(ValueError, match="positive"):
            CostModel.fit(configs, [1e-3, 0.0, 1e-3, 1e-3])
        with pytest.raises(ValueError, match="holdout_fraction"):
            CostModel.fit(configs, [1e-3] * 4, holdout_fraction=1.0)


class TestServingMemory:
    def test_exhaustive_is_stored_quantized_bytes(self):
        config = SearchConfig(n_db=1000, dim=32, num_codebooks=8,
                              num_codewords=512)
        assert serving_memory_bytes(config) == storage_cost(
            1000, 32, 8, 512
        ).quantized_bytes_stored

    def test_ivf_adds_reordered_codes_ids_norms_centroids(self):
        base = SearchConfig(n_db=1000, dim=32, num_codebooks=8,
                            num_codewords=256)
        ivf = SearchConfig(n_db=1000, dim=32, num_codebooks=8,
                           num_codewords=256, num_cells=16, nprobe=4)
        extra = serving_memory_bytes(ivf) - serving_memory_bytes(base)
        codes = 1000 * stored_code_bytes_per_item(8, 256)
        assert extra == codes + 8 * 1000 + 4 * 1000 + 8 * 16 * 32
