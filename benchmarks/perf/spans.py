"""Benchmark-side spans: recorded around calls into the repo, from outside.

In-program spans are a later change (ROADMAP item 1); here the benchmark
wraps each call it makes into a layer with ``recorder.span(...)``. Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """In-memory span list; ``enabled`` toggles recording per block."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, *, parent: int | None = None,
            rid: str | None = None) -> int | None:
        """Record a finished span; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "rid": rid}
        )
        return span_id

    @contextmanager
    def span(self, name: str, rid: str | None = None):
        """Time a synchronous call; nests under the enclosing ``span``."""
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "start": time.perf_counter(),
                  "end": None, "parent": parent, "rid": rid}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            own = (span["end"] - span["start"]) - covered[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + max(own, 0.0)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
