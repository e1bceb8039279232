#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, judged as a claim is judged.

    python scripts/ab_bench.py PARENT CHANGE --workload W --pairs N --seed S

``PARENT`` and ``CHANGE`` are git revisions of this repository, or a
directory — then its working tree as it stands (tracked and untracked files,
less what ``.gitignore`` drops) is what runs. Both sides are materialised in
a fresh temporary directory, so neither run sees the other's build outputs.
Pair ``i`` runs ``benchmarks/perf/run.py --workload W --seed S --trace 0`` in
both trees, the parent first on even pairs and the change first on odd ones,
so a drift in host speed lands on both sides alike.

It prints one table row per end-to-end metric of ``BENCHMARK.json``: every
run of each side, the median [q1, q3] of each side, and the pairs the change
won (ties counted apart). It exits non-zero when

- a run is not ``"correct"`` or lost operations;
- any metric's change median is worse than the parent median by more than
  that metric's ``BENCHMARK.json`` bound;
- the claimed metric (``--claim``, default ``latency_p50_ms``) does not win
  at least nine pairs in ten with medians apart, in its better direction, by
  more than the parent's inter-quartile range — or is not an end-to-end
  metric of ``BENCHMARK.json`` that every run carries, so it cannot be
  judged at all.

The same revision on both sides is an A/A run: it measures the host's noise
floor, and no claim is judged (only the bounds and the runs' correctness).
``--no-claim`` does the same for a change that claims nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def materialise(rev: str, into: Path) -> str:
    """Lay ``rev`` (a revision, or a directory's working tree) out in
    ``into``; returns a label for it."""
    into.mkdir(parents=True)
    if Path(rev).is_dir():
        source = Path(rev).resolve()
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=source, capture_output=True, check=True,
        ).stdout.decode().split("\0")
        for name in filter(None, listed):
            path = source / name
            if path.is_file():  # a tracked file deleted in the tree is skipped
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(path, into / name)
        return f"worktree {source}"
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha[:12]


def run_once(tree: Path, workload: str, seed: int, scale: str) -> dict:
    """One benchmark run in ``tree``: its last JSON line."""
    command = [
        sys.executable, "benchmarks/perf/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", "0", "--scale", scale,
    ]
    out = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"benchmark run failed in {tree} (exit {out.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q1), float(q3)


def fmt(value: float) -> str:
    return f"{value:.4g}"


def judge(spec: list[dict], parent: list[dict], change: list[dict], claim: str | None):
    """``(table lines, failures)`` over the paired runs."""
    lines = [
        "| metric | parent runs | change runs "
        "| median parent [q1, q3] → change [q1, q3] | change wins |",
        "|---|---|---|---|---|",
    ]
    failures = []
    judged = False
    for entry in spec:
        name = entry["name"]
        if not all(name in run["metrics"] for run in parent + change):
            continue
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        lower = entry["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        (ma, qa1, qa3), (mb, qb1, qb3) = quartiles(a), quartiles(b)
        won = f"{wins}/{len(a)}" + (f" ({ties} ties)" if ties else "")
        lines.append(
            f"| `{name}` | {' / '.join(map(fmt, a))} | {' / '.join(map(fmt, b))} | "
            f"{fmt(ma)} [{fmt(qa1)}, {fmt(qa3)}] → {fmt(mb)} [{fmt(qb1)}, {fmt(qb3)}] | {won} |"
        )
        worse = (mb - ma) if lower else (ma - mb)
        if ma and worse / abs(ma) > entry["bound"]:
            failures.append(f"{name}: change median {fmt(mb)} is past the bound "
                            f"({entry['bound']:.0%}) of parent {fmt(ma)}")
        if name == claim:
            judged = True
            shift = (ma - mb) if lower else (mb - ma)
            if wins < math.ceil(0.9 * len(a)):
                failures.append(f"{name}: the change won {wins} of {len(a)} pairs (< 9 in 10)")
            if not shift > qa3 - qa1:
                failures.append(f"{name}: median shift {fmt(shift)} is not beyond the "
                                f"parent IQR {fmt(qa3 - qa1)}")
            moved = f"{(mb - ma) / ma:+.1%}" if ma else f"{fmt(mb - ma)} from 0"
            lines.append(f"claim {name}: median {moved}")
    if claim is not None and not judged:
        failures.append(f"{claim}: not judged — the claim must name an end-to-end "
                        "metric of BENCHMARK.json that every run carries")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--claim", default="latency_p50_ms",
                        help="the end-to-end metric the change claims to improve")
    parser.add_argument("--no-claim", action="store_true", help="judge the bounds only")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        labels = {side: materialise(rev, trees[side])
                  for side, rev in (("parent", args.parent), ("change", args.change))}
        same = labels["parent"] == labels["change"]
        claim = None if (same or args.no_claim) else args.claim
        print(f"{'A/A ' if same else ''}{labels['parent']} → {labels['change']}: "
              f"{args.workload}, seed {args.seed}, {args.pairs} pairs, {args.scale} scale")
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        failures = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed, args.scale)
                runs[side].append(result)
                if not result["correct"] or result["failed"]:
                    failures.append(f"{side} pair {pair}: correct={result['correct']}, "
                                    f"failed={result['failed']}")
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    lines, judged = judge(spec, runs["parent"], runs["change"], claim)
    print("\n".join(lines))
    failures += judged
    for failure in failures:
        print(f"FAIL {failure}")
    print("verdict: " + ("fail" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
    sys.exit(main())
