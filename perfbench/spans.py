"""Span tracer for the traced benchmark run.

Every call into a layer is wrapped from the benchmark's own code.  A span
records its name, start, end, parent span and task id; spans stay in memory
and are written out once the run ends.  With tracing off, ``call`` forwards
straight to the layer and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

ORCHESTRATION = "orchestration"


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.last = 0.0  # duration of the span that ended last; 0.0 when disabled
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, task: str | None = None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if task is None and parent is not None:
            task = self.spans[parent]["task"]
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "task": task}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self.last = record["end"] - record["start"]
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named '<layer>.<operation>'."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its children cover.

        Spans whose name has no layer prefix (run, pass, task) are counted as
        orchestration, so the values sum to the duration of the root spans.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record, covered in zip(self.spans, child_time):
            layer = record["name"].split(".", 1)[0] if "." in record["name"] else ORCHESTRATION
            totals[layer] = totals.get(layer, 0.0) + (record["end"] - record["start"]) - covered
        return totals

    def write(self, path: Path) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {**record, "start": record["start"] - origin, "end": record["end"] - origin}
            for record in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")
