"""Fixtures for the retrieval tests: both scan kernels in one process."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro import native
from repro.retrieval import adc


class ScanKernels:
    """The scan kernels this machine can run, and a switch between them.

    ``names`` is ``["c", "numpy"]`` where the compiled kernel builds and
    ``["numpy"]`` where it cannot (no C compiler): a test that loops over it
    runs the NumPy reference everywhere and the compiled kernel wherever it
    exists.
    """

    def __init__(self) -> None:
        self.names = (["c"] if native.load() is not None else []) + ["numpy"]

    @contextlib.contextmanager
    def use(self, name: str):
        """Serve the scan and the build select pass from kernel ``name``
        inside the block."""
        if name == "c":
            yield
            return
        compiled = native.load
        native.load = lambda: None
        try:
            assert adc.SCAN_KERNEL == "numpy"
            yield
        finally:
            native.load = compiled

    def each(self, run) -> dict:
        """``{name: run()}`` with ``run`` served by each kernel in turn."""
        results = {}
        for name in self.names:
            with self.use(name):
                results[name] = run()
        return results

    @staticmethod
    def agree(results: dict):
        """Assert every kernel's arrays equal the NumPy kernel's bit for bit
        (dtype, shape and bytes); return the NumPy kernel's."""
        want = results["numpy"]
        for name, got in results.items():
            for a, b in zip(got, want):
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), f"{name} kernel differs from numpy"
        return want


@pytest.fixture(scope="session")
def scan_kernels() -> ScanKernels:
    return ScanKernels()
