"""The benchmark harness: schema, determinism of shape, and comparison."""

from __future__ import annotations

import json

import pytest

from repro.obs import bench


@pytest.fixture(scope="module")
def results():
    return bench.run_bench(profiles=[bench.TINY_PROFILE], quick=True, seed=3)


class TestCanonicalDataset:
    def test_strips_lt_suffix(self):
        assert bench.canonical_dataset("cifar100-lt") == "cifar100"
        assert bench.canonical_dataset("cifar100") == "cifar100"
        assert bench.canonical_dataset("tiny") == "tiny"

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            bench.canonical_dataset("mnist-lt")


class TestRunBench:
    def test_top_level_schema(self, results):
        assert results["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert results["quick"] is True
        assert results["seed"] == 3
        assert "env" in results
        assert list(results["profiles"]) == [bench.TINY_PROFILE]

    def test_phases_have_positive_wall_times(self, results):
        phases = results["profiles"][bench.TINY_PROFILE]["phases"]
        assert set(phases) == {
            "train_step", "encode", "index_build", "query", "serve",
            "stream",
        }
        for name, phase in phases.items():
            assert phase["wall_time_s"] > 0, name

    def test_query_latency_percentiles_ordered(self, results):
        latency = results["profiles"][bench.TINY_PROFILE]["phases"]["query"][
            "single"
        ]["latency_s"]
        assert latency["count"] > 0
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_query_encoder_block_schema(self, results):
        # Schema v7: the query phase carries the asymmetric-encoding
        # comparison — light-vs-full encode latency, end-to-end
        # percentiles, and the gated recall@10 delta.
        encoder = results["profiles"][bench.TINY_PROFILE]["phases"]["query"][
            "encoder"
        ]
        for side in ("full", "light"):
            sub = encoder[side]
            assert sub["queries"] > 0
            assert sub["batch_encode_s"] > 0
            assert sub["encode_per_query_s"] > 0
            assert 0 < sub["end_to_end_p50_ms"] <= sub["end_to_end_p95_ms"]
            assert 0.0 <= sub["recall_at_10"] <= 1.0
        assert encoder["encode_speedup"] > 0
        assert encoder["fused_batch_speedup"] > 0
        assert encoder["speedup_floor"] == bench.QUERY_LIGHT_SPEEDUP_FLOOR
        assert encoder["recall_delta_limit"] == bench.QUERY_RECALL_DELTA_LIMIT
        assert isinstance(encoder["within_limits"], bool)
        assert encoder["recall_delta"] == pytest.approx(
            encoder["full"]["recall_at_10"] - encoder["light"]["recall_at_10"]
        )

    def test_serve_phase_schema(self, results):
        # Schema v3: the serve phase records a fault-free closed-loop
        # load test through the serving daemon.
        serve = results["profiles"][bench.TINY_PROFILE]["phases"]["serve"]
        assert serve["failed"] == 0
        assert serve["ok"] == serve["requests"] > 0
        assert serve["qps"] > 0
        assert serve["replicas"] >= 1 and serve["clients"] >= 1
        assert (
            0
            < serve["latency_p50_ms"]
            <= serve["latency_p95_ms"]
            <= serve["latency_p99_ms"]
        )

    def test_stream_phase_schema(self, results):
        # Schema v5: streaming long-tail drift scenario over the mutable
        # index — insert throughput, recall decay vs rebuild, compaction
        # pauses, drift gauge, and the bit-parity bit.
        stream = results["profiles"][bench.TINY_PROFILE]["phases"]["stream"]
        assert stream["inserted"] > 0
        assert stream["live_final"] > 0
        insert = stream["insert"]
        assert insert["items_per_s"] > 0
        assert insert["floor_items_per_s"] == bench.STREAM_INSERT_FLOOR
        compactions = stream["compactions"]
        assert compactions["count"] >= 1
        pause = compactions["pause_s"]
        assert 0 < pause["p50"] <= pause["p95"] <= pause["p99"] <= pause["max"]
        recall = stream["recall"]
        assert recall["k"] == 10
        assert len(recall["checkpoints"]) >= 1
        for checkpoint in recall["checkpoints"]:
            assert 0.0 <= checkpoint["recall_mutable"] <= 1.0
            assert checkpoint["decay"] == pytest.approx(
                checkpoint["recall_rebuild"] - checkpoint["recall_mutable"]
            )
        assert recall["decay_limit"] == bench.STREAM_RECALL_DECAY_LIMIT
        drift = stream["drift"]
        assert drift["threshold"] > 1.0
        assert isinstance(stream["parity_with_rebuild"], bool)

    def test_stream_phase_meets_acceptance_gates(self, results):
        # The decay contract is structural (parity ⇒ exactly zero decay),
        # so even the quick tiny run must clear the thresholds.
        stream = results["profiles"][bench.TINY_PROFILE]["phases"]["stream"]
        assert stream["parity_with_rebuild"] is True
        assert stream["recall"]["within_limit"] is True
        assert stream["recall"]["max_decay"] <= bench.STREAM_RECALL_DECAY_LIMIT
        assert stream["insert"]["meets_floor"] is True

    def test_train_step_throughput(self, results):
        train = results["profiles"][bench.TINY_PROFILE]["phases"]["train_step"]
        assert train["steps"] > 0
        assert train["steps_per_s"] > 0

    def test_results_are_json_serialisable(self, results):
        assert json.loads(json.dumps(results)) == results


class TestPersistence:
    def test_write_and_load_round_trip(self, results, tmp_path):
        path = str(tmp_path / "BENCH_results.json")
        bench.write_results(results, path)
        assert bench.load_results(path) == results

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            bench.load_results(str(path))


class TestReporting:
    def test_format_summary_mentions_profile(self, results):
        text = bench.format_summary(results)
        assert bench.TINY_PROFILE in text
        assert "train_step" in text

    def test_compare_reports_deltas(self, results):
        text = bench.compare_results(results, results)
        assert bench.TINY_PROFILE in text
        assert "+0.0%" in text or "0.0%" in text

    def test_compare_includes_serve_rows(self, results):
        text = bench.compare_results(results, results)
        assert "serve qps" in text
        assert "serve p99 ms" in text

    def test_compare_tolerates_pre_v3_runs(self, results):
        # A v2-style run (no serve phase) must still compare cleanly.
        import copy

        old = copy.deepcopy(results)
        for entry in old["profiles"].values():
            entry["phases"].pop("serve")
        text = bench.compare_results(old, results)
        assert bench.TINY_PROFILE in text
        assert "serve qps" not in text

    def test_compare_includes_stream_rows(self, results):
        text = bench.compare_results(results, results)
        assert "insert items/s" in text
        assert "stream decay" in text

    def test_compare_tolerates_pre_v5_runs(self, results):
        # A v4-style run (no stream phase) must still compare cleanly.
        import copy

        old = copy.deepcopy(results)
        for entry in old["profiles"].values():
            entry["phases"].pop("stream")
        text = bench.compare_results(old, results)
        assert bench.TINY_PROFILE in text
        assert "insert items/s" not in text

    def test_summary_includes_stream_row(self, results):
        text = bench.format_summary(results)
        assert "stream" in text
        assert "parity ok" in text

    def test_compare_notes_one_sided_phases_instead_of_raising(self, results):
        # A phase present on only one side is skipped with a note naming
        # the side and both schema versions — never a KeyError.
        import copy

        old = copy.deepcopy(results)
        old["schema_version"] = 2
        for entry in old["profiles"].values():
            entry["phases"].pop("serve")
            entry["phases"].pop("stream")
        text = bench.compare_results(old, results)
        assert "phase 'serve' only in the new run" in text
        assert "phase 'stream' only in the new run" in text
        assert "schema v2 vs v7" in text

    def test_compare_includes_encoder_rows(self, results):
        text = bench.compare_results(results, results)
        assert "light encode" in text
        assert "recall delta" in text

    def test_summary_includes_encoder_row(self, results):
        text = bench.format_summary(results)
        assert "query.encoder" in text
        assert "fused batch" in text

    def test_compare_tolerates_pre_v7_runs(self, results):
        # A v6-style run (query phase without the encoder block) on either
        # side is noted and skipped via the one-sided-phase path — never a
        # KeyError, and no light-encode row is fabricated.
        import copy

        old = copy.deepcopy(results)
        old["schema_version"] = 6
        for entry in old["profiles"].values():
            entry["phases"]["query"].pop("encoder")
        text = bench.compare_results(old, results)
        assert "block 'query.encoder' only in the new run" in text
        assert "schema v6 vs v7" in text
        assert "light encode" not in text
        # Symmetric: the newer side may also be the one missing it.
        text = bench.compare_results(results, old)
        assert "block 'query.encoder' only in the old run" in text

    def test_compare_tolerates_sparse_phase_entries(self, results):
        # Nested keys a different schema never wrote must not raise.
        import copy

        old = copy.deepcopy(results)
        for entry in old["profiles"].values():
            entry["phases"]["stream"] = {"wall_time_s": 1.0}
            entry["phases"]["serve"] = {"wall_time_s": 1.0}
        text = bench.compare_results(old, results)
        assert bench.TINY_PROFILE in text

    def test_compare_and_summary_include_tune_rows(self, results):
        import copy

        run = copy.deepcopy(results)
        for entry in run["profiles"].values():
            entry["phases"]["tune"] = {
                "wall_time_s": 0.5,
                "k": 5,
                "grid_points": 18,
                "points": [],
                "model": {
                    "coefficients": {},
                    "n_points": 18,
                    "mean_rel_error": 0.08,
                    "max_rel_error": 0.2,
                    "holdout": {"n": 4, "mean_rel_error": 0.1,
                                "max_rel_error": 0.3},
                },
            }
        summary = bench.format_summary(run)
        assert "tune" in summary
        assert "fit err mean 8.0%" in summary
        compare = bench.compare_results(run, run)
        assert "tune fit err" in compare
        assert "18 -> 18 grid points" in compare


class TestCli:
    def test_main_writes_results_file(self, tmp_path):
        out = str(tmp_path / "out.json")
        code = bench.main(
            ["--profile", bench.TINY_PROFILE, "--quick", "--seed", "1", "--out", out]
        )
        assert code == 0
        loaded = bench.load_results(out)
        assert bench.TINY_PROFILE in loaded["profiles"]

    def test_main_compare_mode(self, tmp_path):
        out = str(tmp_path / "a.json")
        bench.main(
            ["--profile", bench.TINY_PROFILE, "--quick", "--seed", "1", "--out", out]
        )
        assert bench.main(["--compare", out, out]) == 0
