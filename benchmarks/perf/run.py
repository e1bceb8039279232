#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, every metric by name.

    python3 benchmarks/perf/run.py --workload serve-flat-unique --seed 1 \\
        --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, drives the repo through
its public functions, checks the answers, prints every metric with its
unit, and ends with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``). ``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` repeats the workload with benchmark-side
spans and reports the per-layer metrics. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

# One BLAS thread, set before NumPy loads its BLAS — the usual setting for a
# server that runs one replica per core. On this 2-core box the two replica
# scans, the event loop and the load generator already fill the cores;
# OpenBLAS's spinning workers on top made identical runs differ by 20 %
# (F p50 5.0 vs 6.1 ms), 0.5 % without. Everything else about the process
# (malloc, GC) is the default a ``repro serve`` user runs with.
PROCESS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PROCESS_ENV)

from repro import obs as repro_obs  # noqa: E402
from repro.obs import names as obs_names  # noqa: E402

import harness as hz  # noqa: E402
import layers  # noqa: E402
from estimators import MIN_BLOCKS, quiet_quartile, run_interleaved  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, TrainStage, serve_metrics, serve_phases  # noqa: E402


class Tracing:
    """The traced run's switch: benchmark spans + the repo's obs registry.

    Tracing alternates block by block (even blocks traced) wherever a
    metric is taken per block, so one run yields both sides of
    ``obs.trace.overhead_ratio`` under the same machine conditions.
    """

    def __init__(self, on: bool) -> None:
        self.on = on
        self.recorder = SpanRecorder()
        self.registry = repro_obs.MetricsRegistry()
        self.toggle = self._toggle if on else None

    def _toggle(self, block: int) -> bool:
        self.set(block % 2 == 0)
        return self.recorder.enabled

    def set(self, traced: bool) -> None:
        if not self.on:
            return
        self.recorder.enabled = traced
        if traced:
            repro_obs.enable_observability(registry=self.registry)
        else:
            repro_obs.disable_observability()


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_serve(stage, sz, seconds: float, ops: hz.Ops, tracing: Tracing):
    rounds = run_interleaved(stage.offline_tasks(sz), sz.build_blocks)
    served = asyncio.run(serve_phases(stage, sz, seconds, ops, tracing))
    metrics, info = serve_metrics(stage, sz, served, ops)
    # Read off the repo's own registry; empty (NaN) unless the run is traced.
    served["batch_size_mean"] = tracing.registry.histogram(obs_names.SERVE_BATCH_SIZE).mean
    served["queue_depth_p95"] = tracing.registry.histogram(obs_names.SERVE_QUEUE_DEPTH).p95
    for name, series in rounds.items():  # rates
        metrics[name] = quiet_quartile(series, "higher")
    info["blocks"].update(rounds)
    return metrics, info, served


def run_train(stage: TrainStage, sz, seconds: float, ops: hz.Ops, tracing: Tracing):
    traced_rounds: list[bool] = []

    def before_round(round_id: int) -> None:
        tracing.set(round_id % 2 == 0)
        traced_rounds.append(tracing.recorder.enabled)

    # Round sizes are fixed, so the round count follows --seconds: the same
    # work — and the same allocations — every run.
    rounds = run_interleaved(
        stage.offline_tasks(sz, ops), max(MIN_BLOCKS, int(seconds / sz.round_s)),
        before_round=before_round,
        span=lambda name, round_id: tracing.recorder.span("round." + name, rid=f"round-{round_id}"),
    )
    tracing.set(True)
    metrics, info = stage.metrics(sz, rounds, ops)
    info["rounds"] = len(traced_rounds)
    return metrics, info, {"rounds": rounds, "traced_rounds": traced_rounds}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    spec = WORKLOADS[workload]
    sz = spec.sizes_at(scale)
    pressure_before = hz.cpu_pressure()
    tracing = Tracing(trace)
    # The traced run sets up once: its set-up time is not a metric.
    stage, setup_s = hz.repeat_setup(
        lambda: spec.stage(seed, sz), lambda old: old.teardown(), 1 if trace else sz.setups
    )
    ops = hz.Ops()
    runner = run_train if isinstance(stage, TrainStage) else run_serve
    metrics, info, raw = runner(stage, sz, seconds, ops, tracing)
    if trace:
        metrics = layers.layer_metrics(stage, sz, metrics, info, raw, tracing)
        tracing.set(False)
        tracing.recorder.write(hz.OUT_DIR / f"trace-{workload}.jsonl")
    else:
        metrics["ok_ratio"] = (ops.attempted - ops.failed) / ops.attempted
        metrics["peak_rss_mb"] = hz.peak_rss_mb()
        metrics["setup_s"] = quiet_quartile(setup_s)
    stage.teardown()
    info.update(
        hz.provenance(), process_env=PROCESS_ENV, workload=workload, seed=seed, seconds=seconds, scale=scale,
        trace=trace, setup_runs_s=setup_s, cpu_pressure_before=pressure_before,
        cpu_pressure_after=hz.cpu_pressure(), failures=ops.notes,
    )
    return {
        "metrics": metrics, "info": info,
        "attempted": ops.attempted, "failed": ops.failed, "wrong": ops.wrong,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    spec = declared()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.scale == "smoke":
        seconds = min(seconds, 2.0)
    result = run(args.workload, args.seed, seconds, bool(args.trace), args.scale)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    out: dict[str, dict] = {}
    bad = []
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            bad.append(entry["name"])
            continue
        out[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        print(f"{entry['name']:48s} {value:16.6f} {entry['unit']}")
    print("info " + json.dumps(result["info"], default=str))
    if bad:
        print(f"missing or non-finite metrics: {bad}", file=sys.stderr)
        return 2
    hz.OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"metrics": out, "info": result["info"]}
    (hz.OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
