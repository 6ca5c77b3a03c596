"""Structured tracing on the virtual clock (the ``repro.obs`` core).

A :class:`Tracer` records a per-query *span tree* — query → stage → task →
driver quantum → operator work — plus point events (RPC batches, buffer
turn-ups/resizes, tuning actions, fault and recovery markers) while the
simulation runs.  The paper's whole evaluation (Section 6) is about
explaining runtime behaviour; this layer is what future scheduling and
auto-tuning work reads instead of print statements.

Design contract — **tracing is provably inert**:

* the tracer never schedules kernel events, never consumes randomness,
  and never mutates engine state: every hook appends to a Python list
  and nothing else.  Virtual timings, query answers, RPC totals, and
  fault schedules are bit-identical with tracing on or off (enforced by
  ``tests/test_obs.py``);
* hot paths pay a single attribute check (``tracer.enabled``) when
  tracing is off — the engine installs the shared :data:`NULL_TRACER`
  singleton, whose flags are all ``False``;
* span volume is bounded by ``MAX_SPANS``; past the cap the
  tracer counts drops instead of growing without bound.

All timestamps are *virtual* seconds from the owning :class:`SimKernel`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..config import TraceConfig
    from ..sim import SimKernel
    from .profile import Profiler

#: Hard cap on recorded spans; past it the tracer counts drops.
MAX_SPANS = 2_000_000


@dataclass(slots=True)
class Span:
    """One node of the trace: an interval (or instant) on the virtual clock.

    ``end is None`` while the span is open; instants have ``end == start``.
    ``parent`` links build the tree (``None`` for roots and cluster-scope
    events).  ``node`` is the simulated machine the work ran on, when
    known; descendants inherit it through the parent chain at export time.
    """

    id: int
    parent: int | None
    kind: str
    name: str
    start: float
    end: float | None = None
    node: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def is_instant(self) -> bool:
        return self.end == self.start


class NullTracer:
    """Shared no-op tracer installed when tracing and profiling are off.

    Every flag is ``False`` and every method returns immediately, so the
    per-event cost on hot paths is one attribute lookup.
    """

    enabled = False
    profiling = False
    profiler: "Profiler | None" = None
    spans: list = []
    dropped = 0

    def begin(self, kind, name, parent=None, node=None, **meta) -> int:
        return -1

    def end(self, span_id, at=None, **meta) -> None:
        pass

    def complete(self, kind, name, start, end, parent=None, node=None, **meta) -> int:
        return -1

    def instant(self, kind, name, parent=None, node=None, **meta) -> int:
        return -1

    def root_for_query(self, query_id) -> int | None:
        return None


#: The process-wide inert tracer (default for every :class:`SimKernel`).
NULL_TRACER = NullTracer()


class Tracer:
    """Records spans and instants against a kernel's virtual clock."""

    def __init__(self, kernel: "SimKernel", config: "TraceConfig"):
        self.kernel = kernel
        self.config = config
        # Flags are flattened to plain attributes so instrumentation sites
        # pay one attribute check, mirroring NullTracer's interface.
        self.enabled = config.enabled
        self.profiling = config.profiling
        if config.profiling:
            from .profile import Profiler

            self.profiler: "Profiler | None" = Profiler()
        else:
            self.profiler = None
        self.spans: list[Span] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._open: dict[int, Span] = {}
        self._query_roots: dict[int, int] = {}

    # -- recording --------------------------------------------------------
    def begin(
        self,
        kind: str,
        name: str,
        parent: int | None = None,
        node: str | None = None,
        **meta,
    ) -> int:
        """Open a span at the current virtual time; returns its id.

        A negative id (over the cap, or from a :class:`NullTracer`) is a
        valid argument to :meth:`end` and as a ``parent`` — both treat it
        as "no span"."""
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return -1
        span = Span(
            id=next(self._ids),
            parent=parent if (parent is not None and parent > 0) else None,
            kind=kind,
            name=name,
            start=self.kernel.now,
            node=node,
            meta=meta,
        )
        self.spans.append(span)
        self._open[span.id] = span
        if kind == "query" and "query_id" in meta:
            self._query_roots[meta["query_id"]] = span.id
        return span.id

    def end(self, span_id: int, at: float | None = None, **meta) -> None:
        """Close an open span (idempotent; ignores unknown/negative ids)."""
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end = self.kernel.now if at is None else at
        if meta:
            span.meta.update(meta)

    def complete(
        self,
        kind: str,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        node: str | None = None,
        **meta,
    ) -> int:
        """Record a closed span with explicit times (e.g. a driver quantum
        whose duration is known the moment it is granted a core)."""
        spans = self.spans
        if len(spans) >= MAX_SPANS:
            self.dropped += 1
            return -1
        span_id = next(self._ids)
        # Positional: this runs once per traced quantum and operator.
        spans.append(
            Span(
                span_id,
                parent if (parent is not None and parent > 0) else None,
                kind, name, start, end, node, meta,
            )
        )
        return span_id

    def quantum(
        self, name: str, start: float, cost: float, parent: int, node: str,
        rows: int, op_costs: list[tuple[str, float]],
    ) -> None:
        """Record a driver quantum: a closed span for the core it holds over
        ``[start, start + cost]``, and inside it one sub-span per operator
        of ``op_costs`` (``(operator, virtual cost)``), stacked in order."""
        quantum_span = self.complete(
            "quantum", name, start, start + cost, parent=parent, node=node, rows=rows
        )
        at = start
        for op_name, op_cost in op_costs:
            self.complete(
                "operator", op_name, at, at + op_cost, parent=quantum_span, node=node
            )
            at += op_cost

    def instant(
        self,
        kind: str,
        name: str,
        parent: int | None = None,
        node: str | None = None,
        **meta,
    ) -> int:
        """Record a zero-duration marker at the current virtual time."""
        now = self.kernel.now
        return self.complete(kind, name, now, now, parent=parent, node=node, **meta)

    # -- lookups ----------------------------------------------------------
    def root_for_query(self, query_id: int | None) -> int | None:
        """Span id of a query's root span (for cross-component parenting)."""
        if query_id is None:
            return None
        return self._query_roots.get(query_id)

    def spans_of(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]
