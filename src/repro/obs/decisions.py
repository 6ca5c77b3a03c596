"""The decision log: every control decision, recorded once (DESIGN.md §9).

Admission, the arbiter, the autoscaler, membership, fault injection and
recovery, the sharing router, the result cache, the predictor, placement
and the tuning path each call :meth:`DecisionLog.record` at the point a
decision takes effect.  That call is the only place the decision is
written down: counters (``engine.metrics.snapshot()``, the workload
report), per-query fault timelines, throughput-curve markers and the
control instants of a trace are all views of this one list.

Design contract — **recording is inert**: :meth:`~DecisionLog.record`
appends to a list, bumps a counter and (with tracing on) hands the tracer
one instant.  It never schedules an event, reads the host clock or draws
randomness, so virtual times and answers do not depend on it, and the
list is equal across same-seed runs with tracing on or off.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import merge
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import SimKernel

#: Decision kind -> the trace span kind its instants are drawn under.
#: ``None``: in the log but not in the trace — a finished run stored in
#: the demand history steers nothing, and a predictor with an empty
#: history must leave a query's trace untouched (DESIGN.md §16).
LANES = {
    "admission": "workload",
    "bid": "workload",
    "memory": "workload",
    "revoke": "workload",
    "deadline_grant": "workload",
    "membership": "membership",
    "inject": "fault",
    "fault": "fault",
    "recovery": "fault",
    "sharing": "sharing",
    "cache": "sharing",
    "predict": "predict",
    "placement": "predict",
    "history": None,
    "tuning": "tuning",
    "rejected": "tuning",
    "build_ready": "tuning",
    "constraint": "tuning",
}


@dataclass(frozen=True, slots=True)
class Decision:
    """One control decision: what was decided, about whom, from what.

    ``query_id`` is ``None`` for fleet-level decisions and for a session
    submission that has not been routed yet (its decisions carry the
    admission sequence number as ``inputs["seq"]`` instead); ``reason``
    is the human-readable why, ``inputs`` the values decided from.
    """

    time: float
    kind: str
    outcome: str
    query_id: int | None = None
    stage: int | None = None
    tenant: str | None = None
    node: str | None = None
    reason: str = ""
    inputs: dict = field(default_factory=dict)


class DecisionLog:
    """Append-only stream of one engine's :class:`Decision` records,
    reached through the kernel every component already holds."""

    def __init__(self, kernel: "SimKernel"):
        self.kernel = kernel
        self._items: list[Decision] = []
        self._counts: Counter = Counter()
        #: Positions in ``_items`` by ``query_id`` and by ``kind`` (what
        #: :meth:`of` visits when asked for one), and of the unrouted
        #: submission decisions by their ``inputs["seq"]``.
        self._index: dict[str, dict] = {"query_id": {}, "kind": {}}
        self._by_seq: dict[int, list[int]] = {}

    def record(
        self,
        kind: str,
        outcome: str,
        *,
        query_id: int | None = None,
        stage: int | None = None,
        tenant: str | None = None,
        node: str | None = None,
        reason: str = "",
        span: int | None = None,
        **inputs,
    ) -> None:
        """Append one decision at the current virtual time.  ``span`` is
        the trace span to hang the instant under when that is not the
        root span of ``query_id`` (a stage span, a carrier's root)."""
        lane = LANES[kind]
        kernel = self.kernel
        position = len(self._items)
        self._index["query_id"].setdefault(query_id, []).append(position)
        self._index["kind"].setdefault(kind, []).append(position)
        if query_id is None and "seq" in inputs:
            self._by_seq.setdefault(inputs["seq"], []).append(position)
        self._items.append(
            Decision(
                kernel.now, kind, outcome, query_id, stage, tenant, node,
                reason, inputs,
            )
        )
        self._counts[kind, outcome] += 1
        tracer = kernel.tracer
        if tracer.enabled and lane is not None:
            fields = {
                "query_id": query_id, "stage": stage, "tenant": tenant,
                "subject": node, "reason": reason or None,
            }
            tracer.instant(
                lane,
                f"{kind}:{outcome}" + ("" if stage is None else f" S{stage}"),
                parent=span if span is not None else tracer.root_for_query(query_id),
                node="coordinator",
                **{k: v for k, v in fields.items() if v is not None},
                **inputs,
            )

    # -- reading ----------------------------------------------------------
    def __len__(self) -> int:
        """Also the *mark* of this moment: pass it as ``since`` later."""
        return len(self._items)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._items)

    def count(self, kind: str, outcome: str) -> int:
        """Decisions of this kind and outcome ever recorded (O(1))."""
        return self._counts[kind, outcome]

    def counts(self, since: int = 0) -> Counter:
        """``(kind, outcome) -> count`` over decisions from mark ``since``."""
        if not since:
            return self._counts.copy()
        return Counter((d.kind, d.outcome) for d in self._items[since:])

    def of(self, since: int = 0, **where) -> list[Decision]:
        """Decisions from mark ``since`` whose fields equal ``where``
        (``of(kind="bid", query_id=3)``), in recording order.  From the
        start, naming a ``query_id`` (or else a ``kind``) visits only its
        decisions."""
        key = next((k for k in self._index if k in where), None)
        if since or key is None:
            items = self._items[since:]
        else:
            items = [self._items[i] for i in self._index[key].get(where[key], [])]
        where = tuple(where.items())
        return [d for d in items if all(getattr(d, k) == v for k, v in where)]

    def about(self, query_ids, seq: int = 0) -> list[Decision]:
        """Decisions recorded under any of ``query_ids`` or, unrouted,
        under admission sequence number ``seq`` (0: none), in order."""
        index = self._index["query_id"]
        lists = [index.get(q, []) for q in query_ids if q is not None]
        if seq:
            lists.append(self._by_seq.get(seq, []))
        return [self._items[i] for i in merge(*lists)]


#: Kinds that make up a query's fault timeline.
_FAULT_KINDS = ("inject", "fault", "recovery")


def fault_timeline(decisions) -> list[dict]:
    """The ``[{"t", "kind", "detail"}]`` shape of
    ``QueryFailedError.fault_history`` and ``fault_report()``."""
    return [
        {"t": d.time, "kind": d.outcome, "detail": d.reason}
        for d in decisions
        if d.kind in _FAULT_KINDS
    ]
