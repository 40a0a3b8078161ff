"""In-memory spans around the benchmark's calls into the package.

A span has a name (``<layer>.<function>``), a start and an end on the
``perf_counter`` clock, the index of its parent span, and the id of the
operation it belongs to (one plant, one pipeline, one replay session).
Spans are kept in a list and written out once, at the end of a run.

With tracing off, ``call`` is a plain call and nothing is recorded, so the
end-to-end timings of an untraced run carry no tracing cost.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None

    def call(self, name, fn, *args, op=None, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, op):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, op=None):
        if not self.enabled:
            yield
            return
        outer_op = self._op
        if op is not None:
            self._op = op
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._op = outer_op

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time covered by
        its direct children (children never overlap in a single thread)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
