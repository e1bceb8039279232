#!/usr/bin/env python3
"""Does the benchmark agree with itself? Two sets of runs, same code.

    python3 benchmarks/perf/check_noise.py --runs 10

For every (workload, end-to-end metric) pair this prints the two sets'
medians, each set's spread (IQR / median over its runs, one seed per run,
as the driver computes it) and the set-to-set change in the direction that
counts as worse, against the metric's bound in ``BENCHMARK.json``. It exits
non-zero if any pair's spread or worsening exceeds its bound (``setup_s``
is exempt from the spread test, as in the driver's acceptance rule).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from estimators import spread  # noqa: E402


#: Run ``i`` of either set uses seed ``FIRST_SEED + i``: the two sets are two
#: samples of the same code on the same inputs, differing only in the machine.
FIRST_SEED = 100


def one_run(spec: dict, workload: str, seed: int) -> dict:
    command = [
        *spec["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect outputs ({result['failed']} failed)")
    if result["failed"]:  # lost to a host stall: shows in ok_ratio, worth a look
        print(f"# {workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr, flush=True)
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def worsening(first: float, second: float, better: str) -> float:
    """Share of the first median by which the second is worse (<= 0: not worse)."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw: dict[str, list[list[dict]]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for set_id in range(2):
            runs = []
            for run_id in range(args.runs):
                runs.append(one_run(spec, workload, FIRST_SEED + run_id))
                print(f"# {workload} set {set_id + 1} run {run_id + 1}/{args.runs} done",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        raw[workload] = sets

    failures = 0
    print("| workload | metric | median 1 | median 2 | spread 1 | spread 2 | worse by | bound | |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for workload, (first, second) in raw.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in first]
            b = [run[name] for run in second]
            spreads = (spread(a), spread(b))
            worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            failures += not ok
            print(
                f"| {workload} | {name} | {statistics.median(a):.5g} | "
                f"{statistics.median(b):.5g} | {spreads[0]:.4f} | {spreads[1]:.4f} | "
                f"{worse:+.4f} | {bound} | {'ok' if ok else 'OUT'} |"
            )
    print(f"\n{failures} pair(s) out of bounds" if failures else "\nall pairs within bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
