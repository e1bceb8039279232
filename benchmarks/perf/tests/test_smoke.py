"""Smoke-scale runs of every workload: the metric matrix, units, names,
and that open-loop latency is taken from the due instant."""

import asyncio
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness as hz
import workloads as wl
from estimators import MIN_BLOCKS

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_every_timed_metric_has_at_least_twelve_blocks_in_the_declared_seconds():
    seconds = SPEC["run_seconds"]
    for name, workload in wl.WORKLOADS.items():
        sizes = workload.sizes_at("full")
        if not hasattr(sizes, "open_rate"):
            continue
        rounds = wl.serve_rounds(sizes, seconds)
        assert rounds >= MIN_BLOCKS and sizes.build_blocks >= MIN_BLOCKS, name
        assert sizes.block_requests >= 100, name
        assert rounds * (sizes.block_requests / sizes.open_rate + sizes.slice_ms / 1e3) <= seconds, name
    train = wl.WORKLOADS["train-build-eval"].sizes_at("full")
    assert int(seconds / train.round_s) >= MIN_BLOCKS and train.latency_block >= 200


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    for name, entry in result["metrics"].items():
        assert np.isfinite(entry["value"]) and entry["value"] > 0, name
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_writes_spans(workload):
    trace_file = PERF / "out" / f"trace-{workload}.jsonl"
    trace_file.unlink(missing_ok=True)
    result = smoke(workload, trace=1)
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    for clean in ("serving.daemon.failed", "serving.daemon.shed", "serving.daemon.degraded_transitions"):
        assert result["metrics"][clean]["value"] == 0
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert spans and all({"name", "start", "end", "parent", "rid"} <= set(s) for s in spans)
    layers = {span["name"].rsplit(".", 1)[0] for span in spans}
    assert {"retrieval.adc", "retrieval.index", "cluster", "data.synthetic"} <= layers


def test_same_seed_gives_bit_identical_quality_and_counts():
    first = smoke("train-build-eval", trace=0)["metrics"]
    second = smoke("train-build-eval", trace=0)["metrics"]
    for name in ("recall_at_10", "retrieval_map", "index_bytes_per_item", "ok_ratio"):
        assert first[name]["value"] == second[name]["value"], name


class StalledDaemon:
    """Answers instantly, but the first request blocks the event loop 50 ms."""

    n_db = 100

    def __init__(self) -> None:
        self.calls = 0

    async def submit(self, request):
        self.calls += 1
        if self.calls == 1:
            time.sleep(0.05)  # deliberately blocks the loop: a host stall
        return SimpleNamespace(
            indices=np.arange(hz.K), distances=np.arange(hz.K, dtype=np.float64),
            source="engine", degraded=False,
        )


def test_open_loop_latency_is_taken_from_the_due_instant():
    ops = hz.Ops()
    opened = asyncio.run(hz.open_loop(
        StalledDaemon(), lambda i: None, rate=1000.0, n_blocks=4, per_block=12, ops=ops,
        check=lambda result: True,
    ))
    assert ops.failed == 0 and opened.ok.all()
    # Requests due during the stall were sent late; from the send instant
    # each took microseconds, from the due instant they waited out the stall.
    from_send = opened.latency_s - opened.lag_s
    stalled = opened.lag_s > 0.01
    assert stalled.sum() >= 20
    assert np.all(opened.latency_s[stalled] >= opened.lag_s[stalled])
    assert np.median(from_send[stalled]) < 0.005
    assert opened.latency_s.max() >= 0.04
