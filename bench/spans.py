"""The benchmark's own span recorder (host clock, in memory).

Spans are recorded from the benchmark's files around public calls into
the library — the engine's own tracer stays off in traced rounds — and
written out as Chrome trace events when the workload ends.  A disabled
recorder hands out one shared no-op span, so untraced rounds pay a
method call and nothing else.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns


class _Span:
    __slots__ = ("rec", "name", "query", "parent", "start", "end")

    def __init__(self, rec: "Recorder", name: str, query):
        self.rec = rec
        self.name = name
        self.query = query
        self.parent = None
        self.start = 0
        self.end = 0

    def __enter__(self) -> "_Span":
        stack = self.rec._stack
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter_ns()
        self.rec._stack.pop()
        self.rec.spans.append(self)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class _NullSpan:
    seconds = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """Collects spans: name, start, end, parent, query id."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []

    def span(self, name: str, query=None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, query)

    def seconds_by_name(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        ids = {id(span): index for index, span in enumerate(self.spans)}
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span.start - origin) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "args": {
                    "id": ids[id(span)],
                    "parent": ids.get(id(span.parent)),
                    "query": span.query,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
