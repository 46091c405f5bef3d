"""In-memory spans and counters recorded around calls into coclass_lab.

A span has a name, a start, an end, the span that was open when it began
(its parent), the catalog entry it belongs to, and the type of the
exception that ended it, if any.  Spans stay in memory until the run
writes them out at the end.  A layer's self time is its span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext


class Span:
    __slots__ = ("tracer", "index", "name", "entry", "parent", "start", "end", "error")

    def __init__(self, tracer, name, entry):
        self.tracer = tracer
        self.name = name
        self.entry = entry
        self.parent = None
        self.start = self.end = 0.0
        self.error = None

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else None
        if self.entry is None and self.parent is not None:
            self.entry = tr.spans[self.parent].entry
        self.index = len(tr.spans)
        tr.spans.append(self)
        tr.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        if exc_type is not None:
            self.error = exc_type.__name__
        return False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "entry": self.entry,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "error": self.error,
        }


class Tracer:
    """Records spans and counters; one per traced pass."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(int)

    def span(self, name: str, entry=None) -> Span:
        return Span(self, name, entry)

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict:
        """Seconds per span name, children's time excluded."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(float)
        for s, covered in zip(self.spans, child_time):
            out[s.name] += (s.end - s.start) - covered
        return dict(out)

    def error_time(self, names, error: str) -> float:
        """Total duration of spans with one of ``names`` that ended in ``error``."""
        return sum(s.end - s.start for s in self.spans if s.name in names and s.error == error)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": [s.as_dict() for s in self.spans], "counts": dict(self.counts)},
                handle,
            )


class NullTracer:
    """Tracing off: spans and counters cost one call each and record nothing."""

    enabled = False
    _span = nullcontext()

    def span(self, name: str, entry=None):
        return self._span

    def count(self, name: str, value=1) -> None:
        pass
