"""Building and loading the compiled scan kernel, and every way it can fail.

Each failure — no compiler, a compile error, an unwritable cache directory —
must leave the process on the NumPy kernel with exactly one logged warning,
and ``adc.SCAN_KERNEL`` must say so. Two builds racing into one empty cache
directory must both succeed, and a later process must find the artifact
without compiling. Compilers are monkeypatched: a missing one, a shell
script that fails, and the real one held at a barrier until both racers
are compiling.
"""

from __future__ import annotations

import logging
import os
import stat
import threading

import numpy as np
import pytest

from repro import native
from repro.retrieval import QuantizedIndex, QueryEngine, adc


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A process that has not resolved its kernel yet, caching into tmp."""
    monkeypatch.setattr(native, "_LOADED", [])
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "cache")
    return tmp_path


def script(path, body: str) -> str:
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def require_compiler() -> str:
    compiler = native.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    return compiler


def assert_numpy_fallback(caplog, reason: str):
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.load() is None
        assert native.load() is None  # resolved once: no second warning
        assert adc.SCAN_KERNEL == "numpy"
    warnings = [r for r in caplog.records if r.name == native.__name__]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert reason in warnings[0].getMessage()
    # ... and the NumPy kernel serves.
    rng = np.random.default_rng(0)
    index = QuantizedIndex.build(
        rng.normal(size=(2, 4, 3)), np.zeros((30, 3)), codes=rng.integers(0, 4, size=(30, 2))
    )
    with QueryEngine(index, parallel="never") as engine:
        ids, _ = engine.search_with_distances(rng.normal(size=(2, 3)), 5)
    assert ids.shape == (2, 5)


def test_no_compiler_falls_back(fresh, monkeypatch, caplog):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    assert_numpy_fallback(caplog, "no C compiler")


def test_compile_error_falls_back(fresh, monkeypatch, caplog):
    broken = script(fresh / "cc", "echo 'native.c:1: error: broken' >&2; exit 1")
    monkeypatch.setattr(native, "find_compiler", lambda: broken)
    assert_numpy_fallback(caplog, "error: broken")
    assert not list((fresh / "cache").iterdir())  # no temporary file left


def test_unwritable_cache_directory_falls_back(fresh, monkeypatch, caplog):
    require_compiler()
    (fresh / "file").write_text("")
    monkeypatch.setattr(native, "cache_dir", lambda: fresh / "file" / "repro")
    assert_numpy_fallback(caplog, "cannot build or load")


def test_racing_first_builds_both_succeed_and_are_found_again(fresh, monkeypatch, caplog):
    compiler = require_compiler()
    directory = fresh / "cache"
    # Both builds have seen no artifact before either compiles: each
    # compiles into its own temporary file and os.replace lands it whole.
    barrier = threading.Barrier(2, timeout=60)
    run = native.subprocess.run

    def compile_together(*args, **kwargs):
        barrier.wait()
        return run(*args, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", compile_together)
    results, errors = [], []

    def build():
        try:
            results.append(native.build(compiler, directory))
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(results) == 2 and results[0] == results[1]
    assert [p.name for p in directory.iterdir()] == [results[0].name]

    # A later process finds the artifact: a stat and a dlopen, no compile.
    def no_compile(*args, **kwargs):
        raise AssertionError("compiled although the artifact was cached")

    monkeypatch.setattr(native.subprocess, "run", no_compile)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        kernel = native.load()
    assert kernel is not None and kernel.path == results[0] and not caplog.records
    assert adc.SCAN_KERNEL == "c"


def test_artifact_name_is_keyed_on_source_compiler_and_flags(fresh, monkeypatch):
    one = script(fresh / "cc1", "exit 0")
    other = script(fresh / "cc2", "exit 0  # a different binary")
    name = native.artifact_name(one)
    assert name == native.artifact_name(one)
    assert name != native.artifact_name(other)
    edited = fresh / "native.c"
    edited.write_text(native.SOURCE.read_text() + "\n/* edited */\n")
    with monkeypatch.context() as patch:
        patch.setattr(native, "SOURCE", edited)
        assert native.artifact_name(one) != name
    with monkeypatch.context() as patch:
        patch.setattr(native, "FLAGS", native.FLAGS + ("-g",))
        assert native.artifact_name(one) != name
    os.utime(one, ns=(0, 0))  # an upgraded compiler is a new binary
    assert native.artifact_name(one) != name
