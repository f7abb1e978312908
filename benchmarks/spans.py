"""In-memory spans for the benchmark's traced runs.

A span records name, start, end, parent span and pass id.  Spans are taken
only in the benchmark's own code, around calls into the library's public
functions; nothing inside the library is instrumented.  With tracing off,
`span` hands back one shared no-op context manager, so the untraced runs
pay for an attribute test and a call.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        tracer._next_id += 1
        self.record = {"id": tracer._next_id, "name": name, "pass": tracer.pass_id}

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1]["id"] if stack else None
        stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(self.record)
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.pass_id: str | None = None
        self._stack: list[dict] = []
        self._next_id = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self, pass_id: str) -> dict[str, float]:
        """Summed self time per span name within one pass: each span's
        duration minus the durations of its direct children."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)

    def durations(self, pass_id: str, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["pass"] == pass_id and s["name"] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(s, sort_keys=True) + "\n")
