"""The decision log: every control decision, recorded once (DESIGN.md §9).

Admission, the arbiter, the autoscaler, membership, fault injection and
recovery, the sharing router, the result cache, the predictor, placement
and the tuning path each call :meth:`DecisionLog.record` at the point a
decision takes effect.  That call is the only place the decision is
written down: counters (``engine.metrics.snapshot()``, the workload
report), per-query fault timelines, throughput-curve markers and the
control instants of a trace are all views of this one stream.

Design contract — **recording is inert**: :meth:`~DecisionLog.record`
appends to a list, bumps a counter and (with tracing on) hands the tracer
one instant.  It never schedules an event, reads the host clock or draws
randomness, so virtual times and answers do not depend on it, and the
stream is equal across same-seed runs with tracing on or off.

**Retention** (DESIGN.md §17): a decision about a query is kept by that
query — its execution, or its handle for a handle's own id and admission
sequence number — and is freed with it; the log keeps its lifetime
counters, a ring of the last :data:`FLEET_DECISIONS` decisions no live
query owns, the fleet-level fault injections (as many as the fault plans
applied), and weak references to the owners' streams.  Counts over a
window come from the counters, so they are exact whatever was freed.
"""

from __future__ import annotations

import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from heapq import merge
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import SimKernel

#: Decisions no live query owns (fleet-level ones, and those about a
#: query nobody holds any more) that the log keeps, newest last; a
#: fleet-level fault injection is kept apart, for the fault report.
FLEET_DECISIONS = 256

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

#: Kind -> the input :meth:`DecisionLog.tally` totals over its decisions,
#: kept like the counters: a number adds its value, a string counts one
#: under its value.
TALLIES = {"sharing": "pages_saved", "fault": "tasks_lost", "recovery": "mode"}


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


class _Stream(list):
    """One owner's ``(mark, Decision)`` pairs, in recording order."""

    __slots__ = ("__weakref__",)


class Mark(int):
    """A moment of a :class:`DecisionLog` (:meth:`DecisionLog.mark`): the
    number of decisions recorded before it, as ``len(log)`` is, and the
    log's counters then, which :meth:`DecisionLog.counts` and
    :meth:`DecisionLog.tally` subtract."""

    def __new__(cls, position: int, counts: Counter, tallies: Counter):
        mark = super().__new__(cls, position)
        mark.counts = counts
        mark.tallies = tallies
        return mark


class DecisionLog:
    """One engine's stream of :class:`Decision` records, reached through
    the kernel every component already holds.

    A *mark* is ``len(log)`` at some moment: the number of decisions
    ever recorded, so it only grows.  Listing answers from what is still
    held (see the module docstring), in recording order; counting from a
    :class:`Mark` answers from the counters."""

    def __init__(self, kernel: "SimKernel"):
        self.kernel = kernel
        self._marks = 0
        self._counts: Counter = Counter()
        #: Lifetime :data:`TALLIES`: ``kind`` -> sum, ``(kind, value)`` ->
        #: count.
        self._tallies: Counter = Counter()
        self._fleet: deque = deque(maxlen=FLEET_DECISIONS)
        #: Every fleet-level fault injection: the fault report lists them.
        self._injected: list = []
        #: The live owners' streams by ``query_id`` and, for unrouted
        #: session submissions, by admission sequence number.
        self._owned: dict[str, weakref.WeakValueDictionary] = {
            "query_id": weakref.WeakValueDictionary(),
            "seq": weakref.WeakValueDictionary(),
        }

    def own(self, **key) -> _Stream:
        """The stream that keeps decisions recorded from now on under
        ``query_id=`` or ``seq=``; they live as long as the caller holds
        it.  Two owners of one id share one stream."""
        ((name, value),) = key.items()
        owned = self._owned[name]
        stream = owned.get(value)
        if stream is None:
            stream = owned[value] = _Stream()
        return stream

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
        decision = Decision(
            kernel.now, kind, outcome, query_id, stage, tenant, node, reason, inputs
        )
        if query_id is not None:
            stream = self._owned["query_id"].get(query_id)
        else:
            stream = self._owned["seq"].get(inputs.get("seq"))
        if stream is None:
            stream = self._injected if kind == "inject" else self._fleet
        stream.append((self._marks, decision))
        self._marks += 1
        self._counts[kind, outcome] += 1
        name = TALLIES.get(kind)
        if name in inputs:
            value = inputs[name]
            if isinstance(value, str):
                self._tallies[kind, value] += 1
            else:
                self._tallies[kind] += value
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
        """Decisions ever recorded: the *mark* of this moment."""
        return self._marks

    def mark(self) -> Mark:
        """This moment, to count from later (``counts(since=...)``)."""
        return Mark(self._marks, self._counts.copy(), self._tallies.copy())

    def _held(self, streams, since: int) -> Iterator[Decision]:
        """The decisions of ``streams`` (and of the unowned ones) from
        mark ``since`` on, in recording order."""
        pairs = merge(*streams, self._fleet, self._injected)
        return (d for mark, d in pairs if mark >= since)

    def _streams(self) -> list:
        return [s for owned in self._owned.values() for s in owned.values()]

    def __iter__(self) -> Iterator[Decision]:
        return self._held(self._streams(), 0)

    def count(self, kind: str, outcome: str) -> int:
        """Decisions of this kind and outcome ever recorded (O(1))."""
        return self._counts[kind, outcome]

    @staticmethod
    def _taken(since: "Mark | int") -> Mark:
        if not isinstance(since, Mark):
            raise TypeError(
                f"counting from position {since} needs a DecisionLog.mark(), "
                "which carries the counters of its moment"
            )
        return since

    def counts(self, since: "Mark | int" = 0) -> Counter:
        """``(kind, outcome) -> count`` over decisions from ``since``: 0
        (ever recorded) or a :meth:`mark`.  Exact, O(kinds)."""
        if not since:
            return self._counts.copy()
        return self._counts - self._taken(since).counts

    def tally(self, kind: str, value: str | None = None, since: "Mark | int" = 0):
        """Over ``kind``'s decisions from ``since`` (0 or a :meth:`mark`):
        the sum of its :data:`TALLIES` input or, given a ``value``, how
        many carried that value.  Exact, O(1)."""
        key = kind if value is None else (kind, value)
        if not since:
            return self._tallies[key]
        return self._tallies[key] - self._taken(since).tallies[key]

    def of(self, since: int = 0, **where) -> list[Decision]:
        """Decisions from mark ``since`` whose fields equal ``where``
        (``of(kind="bid", query_id=3)``), in recording order.  Naming a
        ``query_id`` visits only its owner's stream and the unowned ones."""
        if where.get("query_id") is not None:
            stream = self._owned["query_id"].get(where["query_id"])
            streams = () if stream is None else (stream,)
        else:
            streams = self._streams()
        where = tuple(where.items())
        return [
            d for d in self._held(streams, since)
            if all(getattr(d, k) == v for k, v in where)
        ]

    def about(self, query_ids, seq: int = 0) -> list[Decision]:
        """Decisions recorded under any of ``query_ids`` or, unrouted,
        under admission sequence number ``seq`` (0: none), in order."""
        ids = {q for q in query_ids if q is not None}
        streams = [self._owned["query_id"].get(q) for q in ids]
        if seq:
            streams.append(self._owned["seq"].get(seq))
        return [
            d for d in self._held([s for s in streams if s is not None], 0)
            if d.query_id in ids or (
                seq and d.query_id is None and d.inputs.get("seq") == seq
            )
        ]


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
