"""Wire the smoke-bench and docs-lint scripts into the test suite."""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "scripts", name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )


def test_smoke_bench_passes():
    result = _run_script("smoke_bench.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_smoke_engine_passes():
    result = _run_script("smoke_engine.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_smoke_ivf_passes():
    result = _run_script("smoke_ivf.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_smoke_serve_passes():
    result = _run_script("smoke_serve.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_smoke_mutable_passes():
    result = _run_script("smoke_mutable.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_smoke_tune_passes():
    result = _run_script("smoke_tune.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_smoke_query_passes():
    result = _run_script("smoke_query.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_check_docs_passes():
    result = _run_script("check_docs.py")
    assert result.returncode == 0, result.stdout + result.stderr
