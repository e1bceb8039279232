"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_experiment_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestListCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["cifar100", "imagenet100", "nc", "qba"]

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        assert capsys.readouterr().out.split() == list(EXPERIMENTS)


class TestDatasetStats:
    def test_single_dataset(self, capsys):
        assert main(["dataset-stats", "--dataset", "nc"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert out.count("nc") >= 2  # IF=50 and IF=100 rows


class TestTrain:
    def test_train_fast_with_index(self, tmp_path, capsys):
        index_path = str(tmp_path / "nc.npz")
        code = main(
            [
                "train",
                "--dataset",
                "nc",
                "--fast",
                "--save-index",
                index_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overall MAP" in out
        assert "index saved" in out

        from repro.retrieval.persistence import load_index

        index = load_index(index_path)
        assert len(index) > 0


class TestExperimentCommand:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "Fig. 4" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_train_with_metrics_and_trace(self, tmp_path, capsys):
        metrics_path = str(tmp_path / "metrics.jsonl")
        trace_path = str(tmp_path / "trace.jsonl")
        code = main(
            [
                "train",
                "--dataset",
                "nc",
                "--fast",
                "--metrics-out",
                metrics_path,
                "--trace",
                trace_path,
            ]
        )
        assert code == 0

        from repro import obs
        from repro.obs import names as metric_names

        header, *records = obs.read_jsonl(metrics_path)
        assert header["stream"] == "metrics"
        assert header["run"]["dataset"] == "nc"
        emitted = {record["metric"] for record in records}
        assert metric_names.TRAIN_STEPS_TOTAL in emitted
        assert metric_names.TRAIN_EPOCH_TIME in emitted

        trace_header, *spans = obs.read_jsonl(trace_path)
        assert trace_header["stream"] == "trace"
        assert any(span["span"] == "train.epoch" for span in spans)

        # the flag-enabled context must not outlive the command
        assert obs.get_obs().enabled is False


class TestServeSubcommand:
    @pytest.fixture()
    def index_path(self, tmp_path):
        import numpy as np

        from repro.retrieval.index import QuantizedIndex
        from repro.retrieval.persistence import save_index

        rng = np.random.default_rng(0)
        codebooks = rng.normal(size=(3, 16, 6))
        codes = rng.integers(0, 16, size=(120, 3))
        index = QuantizedIndex.build(
            codebooks, rng.normal(size=(120, 6)), codes=codes
        )
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        return path

    def test_serve_load_test(self, index_path, capsys):
        code = main(
            ["serve", "--index", index_path, "--requests", "24",
             "--queries", "16", "--clients", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failed: 0" in out
        assert "p99" in out

    def test_serve_with_fault_and_metrics(self, index_path, tmp_path, capsys):
        metrics_path = str(tmp_path / "serve-metrics.jsonl")
        code = main(
            ["serve", "--index", index_path, "--requests", "24",
             "--queries", "16", "--clients", "4",
             "--kill-replica-at", "2", "--metrics-out", metrics_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault plan: kill replica 0" in out
        assert "failed: 0" in out

        from repro import obs
        from repro.obs import names as metric_names

        header, *records = obs.read_jsonl(metrics_path)
        assert header["stream"] == "metrics"
        emitted = {record["metric"] for record in records}
        assert metric_names.SERVE_REQUESTS_TOTAL in emitted
        assert metric_names.SERVE_FAILOVERS_TOTAL in emitted
        assert obs.get_obs().enabled is False

    def test_serve_validates_flags(self, index_path):
        assert main(["serve", "--index", index_path, "--replicas", "0"]) == 2
        assert main(["serve", "--index", index_path, "--requests", "0"]) == 2
        assert main(["serve", "--index", index_path, "--churn", "0"]) == 2

    def test_serve_mutable_with_churn(self, index_path, capsys):
        code = main(
            ["serve", "--index", index_path, "--mutable", "--churn", "2",
             "--requests", "24", "--queries", "16", "--clients", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mutable: 120 rows adopted" in out
        assert "failed: 0" in out
        assert "churn: 2 rounds" in out
        assert "compacted to generation" in out

    def test_serve_churn_on_labelled_index(self, tmp_path, capsys):
        # train --save-index produces a labelled index; churn adds must
        # carry labels or the mutation round raises mid-flight.
        index_path = str(tmp_path / "labelled.npz")
        assert main(
            ["train", "--dataset", "nc", "--fast", "--save-index", index_path]
        ) == 0
        capsys.readouterr()
        code = main(
            ["serve", "--index", index_path, "--churn", "1",
             "--requests", "12", "--queries", "8", "--clients", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failed: 0" in out
        assert "churn: 1 rounds" in out
        assert "compacted to generation" in out

    def test_serve_churn_implies_mutable_and_takes_ivf(self, index_path, capsys):
        code = main(
            ["serve", "--index", index_path, "--churn", "1",
             "--ivf-cells", "8", "--requests", "12", "--queries", "8",
             "--clients", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ivf: 8 cells" in out
        assert "mutable: 120 rows adopted" in out
        assert "churn: 1 rounds" in out


class TestBenchSubcommand:
    def test_bench_delegates_to_harness(self, tmp_path):
        out = str(tmp_path / "BENCH_results.json")
        code = main(
            ["bench", "--profile", "tiny", "--quick", "--seed", "2", "--out", out]
        )
        assert code == 0

        from repro.obs import bench

        results = bench.load_results(out)
        assert "tiny" in results["profiles"]

    def test_bench_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "bench" in capsys.readouterr().out


class TestTuneCommand:
    def test_sweep_then_recommend_from_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "TUNE_results.json")
        code = main([
            "tune", "--profile", "tiny", "--quick", "--seed", "0",
            "--k", "5", "--out", out,
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "tune" in stdout
        assert "fit err mean" in stdout

        # A generous budget against the saved artifact is feasible (exit 0)
        code = main([
            "tune", "--from-results", out, "--k", "5",
            "--latency-ms", "1e6", "--memory-mb", "1e6",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "recommended:" in stdout
        assert "INFEASIBLE" not in stdout

        # An impossible recall floor exits 1 and says so.
        code = main([
            "tune", "--from-results", out, "--k", "5", "--recall", "0.999",
        ])
        assert code == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_budget_k_mismatch_is_a_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "TUNE_results.json")
        assert main([
            "tune", "--profile", "tiny", "--quick", "--k", "5",
            "--out", out,
        ]) == 0
        capsys.readouterr()
        code = main(["tune", "--from-results", out, "--recall", "0.5"])
        assert code == 2
        assert "re-run the sweep" in capsys.readouterr().err
