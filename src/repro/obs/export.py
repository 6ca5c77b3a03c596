"""Per-query trace views and Chrome trace-event export.

:class:`QueryTrace` filters a :class:`~repro.obs.trace.Tracer`'s span
list down to one query's tree and renders it as a Chrome trace-event
JSON file (the format Perfetto and ``chrome://tracing`` load).  The
mapping:

* virtual seconds become the trace timeline (``ts``/``dur`` are in
  microseconds, so 1 virtual second = 1e6 ticks — Perfetto shows it as
  one "second" of wall time);
* each simulated node becomes a *process* (``pid``), named via ``M``
  metadata events; coordinator-scope spans (query/stage/RPC/tuning)
  live in a synthetic ``coordinator`` process;
* each task gets its own *thread* (``tid``) lane inside its node's
  process, so quanta and operator work stack naturally;
* intervals are ``X`` (complete) events, markers are ``i`` (instant)
  events, and per-stage throughput samples become ``C`` (counter)
  tracks.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .trace import Span

if TYPE_CHECKING:  # pragma: no cover
    from .trace import Tracer

#: Spans of these kinds get a per-task lane; everything else goes to a
#: coordinator-scope lane keyed by kind.
_TASK_SCOPED = ("task", "quantum", "operator", "buffer", "spill")


class QueryTrace:
    """One query's span tree, filtered out of the engine-wide tracer."""

    def __init__(self, tracer: "Tracer", query_id: int, finished_at: float | None = None):
        self.query_id = query_id
        self.finished_at = finished_at
        #: Chrome counter ("C") events to merge into exports (QueryHandle
        #: fills this with the query's throughput samples).
        self.counters: list[dict] = []
        root = tracer.root_for_query(query_id)
        if root is None:
            raise ValueError(f"no trace recorded for query {query_id}")
        self.root_id = root
        # Spans are recorded parents-first, so one pass over the list in
        # record order reconstructs the connected tree.
        included = {root}
        spans: list[Span] = []
        for span in tracer.spans:
            if (
                span.id == root
                or (span.parent is not None and span.parent in included)
                or span.meta.get("query_id") == query_id
            ):
                included.add(span.id)
                spans.append(span)
        self.spans = spans
        self._by_id = {s.id: s for s in spans}

    # -- tree queries ------------------------------------------------------
    def root(self) -> Span:
        return self._by_id[self.root_id]

    def spans_of(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def children_of(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def tree(self) -> dict:
        """Nested ``{span, children}`` dict view, rooted at the query."""

        def build(span: Span) -> dict:
            return {
                "span": span,
                "children": [build(child) for child in self.children_of(span.id)],
            }

        return build(self.root())

    def node_of(self, span: Span) -> str:
        """The simulated node a span ran on (walks the parent chain)."""
        cursor: Span | None = span
        while cursor is not None:
            if cursor.node is not None:
                return cursor.node
            cursor = self._by_id.get(cursor.parent) if cursor.parent else None
        return "coordinator"

    def _end_of(self, span: Span) -> float:
        if span.end is not None:
            return span.end
        if self.finished_at is not None:
            return self.finished_at
        return max((s.end for s in self.spans if s.end is not None), default=span.start)

    # -- chrome export -----------------------------------------------------
    def to_chrome_events(self, counters: list[dict] | None = None) -> list[dict]:
        """The ``traceEvents`` list (see module docstring for the mapping)."""
        pids: dict[str, int] = {}
        tids: dict[tuple[int, str], int] = {}
        events: list[dict] = []

        def pid_for(node: str) -> int:
            pid = pids.get(node)
            if pid is None:
                pid = pids[node] = len(pids) + 1
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": node},
                    }
                )
            return pid

        def tid_for(pid: int, lane: str) -> int:
            tid = tids.get((pid, lane))
            if tid is None:
                tid = tids[(pid, lane)] = (
                    len([k for k in tids if k[0] == pid]) + 1
                )
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": lane},
                    }
                )
            return tid

        def lane_of(span: Span) -> str:
            if span.kind in _TASK_SCOPED:
                cursor: Span | None = span
                while cursor is not None and cursor.kind != "task":
                    cursor = (
                        self._by_id.get(cursor.parent) if cursor.parent else None
                    )
                if cursor is not None:
                    return cursor.name
            return span.kind

        for span in self.spans:
            node = self.node_of(span)
            pid = pid_for(node)
            tid = tid_for(pid, lane_of(span))
            args = {k: v for k, v in span.meta.items() if v is not None}
            if span.is_instant:
                events.append(
                    {
                        "name": span.name,
                        "cat": span.kind,
                        "ph": "i",
                        "ts": span.start * 1e6,
                        "pid": pid,
                        "tid": tid,
                        "s": "t",
                        "args": args,
                    }
                )
            else:
                end = self._end_of(span)
                events.append(
                    {
                        "name": span.name,
                        "cat": span.kind,
                        "ph": "X",
                        "ts": span.start * 1e6,
                        "dur": max(end - span.start, 0.0) * 1e6,
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
        if counters is None:
            counters = self.counters
        for counter in counters:
            counter = dict(counter)
            counter["pid"] = pid_for("coordinator")
            events.append(counter)
        return events

    def to_chrome_json(self, path=None, counters: list[dict] | None = None):
        """Serialise as Chrome trace-event JSON; write to ``path`` if given.

        Returns the trace document (a dict) either way, so tests can
        schema-check it without touching the filesystem."""
        doc = {
            "traceEvents": self.to_chrome_events(counters=counters),
            "displayTimeUnit": "ms",
            "metadata": {"query_id": self.query_id, "clock": "virtual-seconds"},
        }
        if path is not None:
            from pathlib import Path

            Path(path).write_text(json.dumps(doc, indent=1, default=str) + "\n")
        return doc


def throughput_counters(tracker) -> list[dict]:
    """Chrome ``C`` events from a query's :class:`~repro.obs.throughput.Sampler`.

    Each stage contributes two counter tracks: cumulative output rows and
    the current stage DOP — the raw material behind Figures 23-30."""
    events: list[dict] = []
    if tracker is None:
        return events
    for stage_id in tracker.query.stages:
        for track, name in (("rows", "rows_out"), ("dop", "stage_dop")):
            series = tracker.series(stage_id, name)
            for at, value in zip(series.times, series.values):
                events.append(
                    {
                        "name": f"stage{stage_id} {track}",
                        "ph": "C",
                        "ts": at * 1e6,
                        "tid": 0,
                        "args": {track: value},
                    }
                )
    return events
