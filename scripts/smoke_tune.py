#!/usr/bin/env python
"""CI smoke test for the calibrated auto-tuner.

Runs `repro tune` end to end on the ``tiny`` micro-profile, validates
the written ``TUNE_results.json`` against the ``phases.tune`` schema
documented in ``docs/tuning.md``, then replays a generous budget through
``--from-results`` and asserts it is feasible, and an impossible recall
floor and asserts it is refused with exit code 1.

Run from the repository root::

    python scripts/smoke_tune.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.cli import main as cli_main
from repro.obs.bench import BENCH_SCHEMA_VERSION, load_results
from repro.retrieval.costs import COST_FEATURE_NAMES
from repro.tuning import tiny_grid


def validate(results: dict) -> None:
    assert results["schema_version"] == BENCH_SCHEMA_VERSION
    tune = results["profiles"]["tiny"]["phases"]["tune"]
    assert tune["grid_points"] == len(tune["points"]) == len(tiny_grid())
    for entry in tune["points"]:
        assert entry["latency_ms"] > 0, entry
        assert 0.0 <= entry["recall"] <= 1.0, entry
        assert entry["memory_mb"] > 0, entry
    model = tune["model"]
    assert set(model["coefficients"]) == set(COST_FEATURE_NAMES)
    assert model["holdout"]["n"] > 0
    # Loose fit sanity only — the strict <= 0.25 holdout gate runs in the
    # nightly bench where a noisy runner fails the build, not the smoke.
    assert model["mean_rel_error"] < 0.5, model


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "TUNE_results.json")
        code = cli_main([
            "tune", "--profile", "tiny", "--quick", "--seed", "0",
            "--k", "5", "--out", out,
        ])
        assert code == 0, f"tune sweep exited {code}"
        validate(load_results(out))
        code = cli_main([
            "tune", "--from-results", out, "--k", "5",
            "--latency-ms", "1e4", "--memory-mb", "1e4",
        ])
        assert code == 0, f"generous budget should be feasible, exited {code}"
        code = cli_main([
            "tune", "--from-results", out, "--k", "5", "--recall", "0.9999",
        ])
        assert code == 1, f"impossible recall floor should exit 1, got {code}"
    elapsed = time.perf_counter() - start
    print(f"smoke tune OK in {elapsed:.2f}s")
    if elapsed > 10.0:
        print(f"WARNING: smoke tune took {elapsed:.2f}s (budget 10s)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
