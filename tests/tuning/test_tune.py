"""Tests for the calibrated auto-tuner: grid, sweep, recommendation."""

import copy
import json

import numpy as np
import pytest

from repro.retrieval.costs import COST_FEATURE_NAMES
from repro.tuning import (
    GridPoint,
    TuneRequest,
    default_grid,
    model_from_report,
    recommend,
    run_tune_sweep,
    tiny_grid,
)


@pytest.fixture(scope="module")
def sweep_results():
    """One real quick sweep on the tiny profile — treat as read-only."""
    return run_tune_sweep(profile="tiny", quick=True, seed=0, k=5)


class TestGrids:
    def test_tiny_grid_shape(self):
        grid = tiny_grid()
        assert len(grid) == 16
        assert len(set(grid)) == len(grid)  # no duplicate points
        assert any(not p.uses_ivf for p in grid)
        assert any(p.uses_ivf for p in grid)
        # One encode-inclusive point per query-encoder mode and geometry.
        for mode in ("full", "light"):
            assert sum(p.query_encoder == mode for p in grid) == 2

    def test_default_grid_has_uint16_point(self):
        """K=512 stores as uint16 — the point where ideal and as-stored
        byte accountings diverge must stay in the default sweep."""
        grid = default_grid()
        assert any(p.num_codewords == 512 for p in grid)
        point = next(p for p in grid if p.num_codewords == 512)
        config = point.search_config(n_db=1000, dim=32, k=10)
        assert config.code_dtype == "uint16"

    def test_search_config_carries_point_fields(self):
        point = GridPoint(4, 16, num_cells=8, nprobe=2)
        config = point.search_config(n_db=500, dim=12, k=5)
        assert (config.num_codebooks, config.num_codewords) == (4, 16)
        assert (config.num_cells, config.nprobe) == (8, 2)
        assert config.uses_ivf


class TestSweep:
    def test_artifact_structure(self, sweep_results):
        assert sweep_results["schema_version"] == 7
        tune = sweep_results["profiles"]["tiny"]["phases"]["tune"]
        assert tune["grid_points"] == len(tune["points"]) == len(tiny_grid())
        assert tune["k"] == 5
        for entry in tune["points"]:
            assert entry["latency_ms"] > 0
            assert 0.0 <= entry["recall"] <= 1.0
            assert entry["memory_mb"] > 0
            assert entry["latency_model_ms"] > 0
            assert entry["config"]["n_db"] > 0
        model = tune["model"]
        assert set(model["coefficients"]) == set(COST_FEATURE_NAMES)
        assert model["n_points"] == len(tune["points"])
        assert model["holdout"]["n"] > 0

    def test_fit_quality_loose_bound(self, sweep_results):
        """Real wall-clock fit: loose sanity bounds (the strict <=0.25
        acceptance gate lives in the nightly bench, where a flaky shared
        runner fails the build rather than the unit suite)."""
        model = sweep_results["profiles"]["tiny"]["phases"]["tune"]["model"]
        assert model["mean_rel_error"] < 0.5
        assert model["holdout"]["mean_rel_error"] < 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_tune_sweep(profile="tiny", grid=())


class TestTuneRequest:
    def test_requires_a_budget(self):
        with pytest.raises(ValueError, match="at least one budget"):
            TuneRequest()

    def test_validation(self):
        with pytest.raises(ValueError):
            TuneRequest(latency_ms=0.0)
        with pytest.raises(ValueError):
            TuneRequest(recall=1.5)
        with pytest.raises(ValueError):
            TuneRequest(memory_mb=-1.0)
        with pytest.raises(ValueError):
            TuneRequest(recall=0.5, k=0)


class TestRecommend:
    def test_deterministic_for_fixed_artifact(self, sweep_results):
        """The satellite guarantee: same artifact, same request — same
        recommendation, including across a JSON round-trip."""
        request = TuneRequest(latency_ms=50.0, recall=0.3, memory_mb=64.0,
                              k=5)
        first = recommend(sweep_results, request)
        second = recommend(copy.deepcopy(sweep_results), request)
        third = recommend(json.loads(json.dumps(sweep_results)), request)
        assert first.as_dict() == second.as_dict() == third.as_dict()

    def test_generous_budget_is_feasible(self, sweep_results):
        recommendation = recommend(
            sweep_results, TuneRequest(latency_ms=1e4, memory_mb=1e4, k=5)
        )
        assert recommendation.feasible
        assert recommendation.source in ("measured", "interpolated")
        assert recommendation.note == ""

    def test_impossible_budget_reports_nearest_miss(self, sweep_results):
        recommendation = recommend(
            sweep_results, TuneRequest(recall=0.999, k=5)
        )
        assert not recommendation.feasible
        assert "nearest" in recommendation.note

    def test_k_mismatch_rejected(self, sweep_results):
        with pytest.raises(ValueError, match="k=9"):
            recommend(sweep_results, TuneRequest(recall=0.5, k=9))

    def test_missing_tune_phase_rejected(self):
        with pytest.raises(ValueError, match="no tune phase"):
            recommend({"profiles": {"tiny": {"phases": {}}}},
                      TuneRequest(recall=0.5))

    def _synthetic_artifact(self):
        """Two measured nprobe points bracketing an interpolation window.

        The model prices latency as ``1 us x nprobe`` (probe_cells is the
        only non-zero coefficient), so nprobe=8 measures 8 us and the
        interpolated nprobe in between land on the model line.
        """
        coefficients = {name: 0.0 for name in COST_FEATURE_NAMES}
        coefficients["probe_cells"] = 1e-6
        base = dict(num_codebooks=4, num_codewords=16, workers=1,
                    num_shards=1, num_cells=16,
                    n_db=1000, dim=16, code_dtype="uint8")
        points = [
            {"config": {**base, "nprobe": 1}, "latency_ms": 1e-3,
             "recall": 0.2, "memory_mb": 0.1},
            {"config": {**base, "nprobe": 8}, "latency_ms": 8e-3,
             "recall": 0.9, "memory_mb": 0.1},
        ]
        tune = {
            "k": 10, "n_queries": 1, "grid_points": 2, "points": points,
            "train": [],
            "model": {"coefficients": coefficients, "n_points": 2,
                      "mean_rel_error": 0.0, "max_rel_error": 0.0,
                      "holdout": {"n": 0, "mean_rel_error": None,
                                  "max_rel_error": None}},
        }
        return {"schema_version": 6, "seed": 0, "quick": True,
                "profiles": {"tiny": {"phases": {"tune": tune}}}}

    def _pre_removal_artifact(self):
        """The synthetic artifact as written while the IVF scan still had a
        uint8-LUT variant: every point names its LUT dtype, one was measured
        under uint8 (and would win any budget), and the model carries that
        arithmetic's coefficient."""
        artifact = self._synthetic_artifact()
        tune = artifact["profiles"]["tiny"]["phases"]["tune"]
        for entry in tune["points"]:
            entry["config"]["lut_dtype"] = "float32"
        quantized = copy.deepcopy(tune["points"][1])
        quantized["config"]["lut_dtype"] = "uint8"
        quantized.update(latency_ms=1e-4, recall=0.99)
        tune["points"].append(quantized)
        tune["grid_points"] = 3
        tune["model"]["coefficients"]["scan_uint8"] = 1e-9
        return artifact

    def test_old_artifact_replays_without_its_quantized_lut_points(self):
        artifact = self._pre_removal_artifact()
        tune = artifact["profiles"]["tiny"]["phases"]["tune"]
        model = model_from_report(tune["model"])  # unknown coefficient ignored
        assert model.coefficients.sum() == pytest.approx(1e-6)

        feasible = recommend(artifact, TuneRequest(recall=0.5))
        assert feasible.feasible
        assert feasible.config.get("lut_dtype") == "float32"
        assert (feasible.config["nprobe"], feasible.recall) == (8, 0.9)
        assert "skipped 1 measured point" in feasible.note
        assert any("skipped 1" in line for line in feasible.summary_lines())

        # Only the skipped point could have met this floor.
        missed = recommend(artifact, TuneRequest(recall=0.95))
        assert not missed.feasible
        assert "nearest" in missed.note and "skipped 1" in missed.note

        # Interpolation still runs over the points that remain.
        between = recommend(artifact, TuneRequest(latency_ms=6e-3, recall=0.5))
        assert between.source == "interpolated"

    def test_old_and_new_ivf_summaries_both_format(self):
        from repro.obs.bench import format_summary

        build = {"wall_time_s": 1.5, "num_cells": 64, "nbytes": 1000}
        phase = {
            "build": build,
            "exhaustive": {"wall_time_s": 0.5, "qps": 100.0},
            "curve": [], "best": None, "recall_floor": 0.95,
        }
        results = {"schema_version": 7, "seed": 0, "quick": True,
                   "profiles": {"ivf-large": {"phases": {"ivf": phase}}}}
        assert "64 cells, build 1.5s" in format_summary(results)
        build["lut_dtype"] = "uint8"  # as artifacts used to record it
        assert "64 cells, uint8 LUT, build 1.5s" in format_summary(results)

    def test_interpolates_between_measured_nprobes(self):
        """A budget no measured point satisfies is met by a model-priced
        nprobe between the two measured ones."""
        artifact = self._synthetic_artifact()
        # recall >= 0.5 rules out nprobe=1; latency <= 6us rules out
        # nprobe=8 — only an interpolated point in (1, 8) fits both.
        request = TuneRequest(latency_ms=6e-3, recall=0.5)
        recommendation = recommend(artifact, request)
        assert recommendation.feasible
        assert recommendation.source == "interpolated"
        assert 1 < recommendation.config["nprobe"] < 8
        model = model_from_report(artifact["profiles"]["tiny"]["phases"]
                                  ["tune"]["model"])
        assert model.coefficients.sum() == pytest.approx(1e-6)
        assert recommendation.latency_ms == pytest.approx(
            recommendation.config["nprobe"] * 1e-3
        )
        # Log2-linear recall interpolation between the brackets.
        nprobe = recommendation.config["nprobe"]
        weight = np.log2(nprobe) / 3.0
        assert recommendation.recall == pytest.approx(
            0.2 * (1 - weight) + 0.9 * weight
        )
