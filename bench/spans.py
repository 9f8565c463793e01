"""Spans around the benchmark's calls into the library, kept in memory.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or None, `op` the index of the op it belongs to.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


class NullTracer:
    """Untraced runs: every span is the same empty context."""

    spans: tuple = ()
    _null = nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int] | None] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def self_ms(self, root_factor: dict[int, float]) -> dict[str, float]:
        """Total self time per span name in ms, each span scaled by the
        reference factor of its root span; ops without one are skipped."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        root_of: list[int] = []
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            root = idx if parent is None else root_of[parent]
            root_of.append(root)
            if root in root_factor:  # absent when the op raised
                own = (end - start - child_time[idx]) * 1e3
                out[name] += own * root_factor[root]
        return out

    def write(self, path: Path, header: dict) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": rows}) + "\n")
