"""``scripts/ab_bench.py``'s verdict, driven with synthetic pair runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PARENT_P50 = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.01, 0.99]
PARENT_QPS = [1000.0, 1010.0, 990.0, 1005.0, 995.0, 1020.0, 980.0, 1000.0, 1003.0, 997.0]


def runs(p50, qps=PARENT_QPS):
    return [
        {"metrics": {"latency_p50_ms": {"value": a}, "closed_loop_qps": {"value": b}}}
        for a, b in zip(p50, qps)
    ]


def test_a_met_claim_passes():
    lines, failures = ab_bench.judge(
        SPEC, runs(PARENT_P50), runs([0.8 * v for v in PARENT_P50]), "latency_p50_ms"
    )
    assert failures == []
    assert "claim latency_p50_ms: median -20.0%" in lines


def test_eight_wins_in_ten_fail_the_claim():
    change = [0.8 * v for v in PARENT_P50]
    change[3] = change[7] = 1.5
    _, failures = ab_bench.judge(SPEC, runs(PARENT_P50), runs(change), "latency_p50_ms")
    assert any("won 8 of 10" in failure for failure in failures)


def test_a_shift_inside_the_parent_iqr_fails_the_claim():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.3, 0.7, 1.0, 1.2, 0.8]
    change = [v - 0.01 for v in parent]  # wins every pair, moves 1 %
    _, failures = ab_bench.judge(SPEC, runs(parent), runs(change), "latency_p50_ms")
    assert len(failures) == 1 and "parent IQR" in failures[0]


def test_an_unclaimed_metric_past_its_bound_fails():
    change = runs([0.8 * v for v in PARENT_P50], [0.5 * v for v in PARENT_QPS])
    _, failures = ab_bench.judge(SPEC, runs(PARENT_P50), change, "latency_p50_ms")
    assert len(failures) == 1 and failures[0].startswith("closed_loop_qps:")


@pytest.mark.parametrize("claim", ["latency_p50", "recall_at_10"],
                         ids=["not-in-benchmark-json", "not-in-the-runs"])
def test_a_claim_that_is_never_judged_fails(claim):
    same = runs(PARENT_P50)
    _, failures = ab_bench.judge(SPEC, same, same, claim)
    assert len(failures) == 1 and failures[0].startswith(f"{claim}: not judged")


def test_an_aa_run_judges_the_bounds_only():
    lines, failures = ab_bench.judge(SPEC, runs(PARENT_P50), runs(PARENT_P50), None)
    assert failures == []
    assert not any(line.startswith("claim") for line in lines)
    assert "10 ties" in lines[2]


def test_a_parent_median_of_zero_does_not_raise():
    parent = [{"metrics": {"ok_ratio": {"value": 0.0}}} for _ in range(10)]
    change = [{"metrics": {"ok_ratio": {"value": 1.0}}} for _ in range(10)]
    lines, failures = ab_bench.judge(SPEC, parent, change, "ok_ratio")
    assert failures == []
    assert "claim ok_ratio: median 1 from 0" in lines
