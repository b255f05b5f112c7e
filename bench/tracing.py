"""In-memory spans around the benchmark's calls into the program.

A span is (id, name, start, end, parent). Spans are kept in a list and
written out once, when the run ends. The untraced run uses ``NullTracer``,
whose spans cost one no-op context manager each.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    @contextlib.contextmanager
    def span(self, name: str):
        yield


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total seconds, and self seconds.

        Self time is a span's duration minus the time its children cover.
        Children of one span never overlap, since spans nest on one thread.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            entry = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = s["end"] - s["start"]
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[s["id"]]
        return out

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"summary": self.summary(), "spans": self.spans, **extra}
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
