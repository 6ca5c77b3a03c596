"""Discrete-event simulation kernel with a virtual clock.

The engine substitutes the paper's 21-node AWS cluster with a simulated
cluster.  All engine components take their notion of time from a
:class:`SimKernel`: events are callbacks scheduled at virtual timestamps,
and ``run()`` advances the clock from event to event.  The simulation is
fully deterministic — ties are broken by an insertion sequence number.

Two scheduling paths share one total order:

* :meth:`SimKernel.schedule` / :meth:`SimKernel.schedule_at` return an
  :class:`Event` handle supporting cancellation.
* :meth:`SimKernel.post` is the allocation-lean internal path used by hot
  components (core grants, NIC transfers): no handle is created and the
  callback may carry one positional argument, so completion paths can be
  bound methods instead of per-grant closures.

Internally the queue holds plain ``(time, seq, event, fn, arg)`` tuples —
``(time, seq)`` is unique, so tuple comparison never reaches the payload
and ordering is resolved entirely in C.  Entries scheduled *at the current
virtual time* bypass the heap into a FIFO deque (same-time events are FIFO
by construction), which turns the extremely common "run this next" pattern
from O(log n) heap traffic into O(1) deque ops.  ``run`` merges the two
structures by comparing their heads, preserving the exact global order.

Cancelled events are removed lazily on pop, but the kernel tracks the
live-event count and compacts the queue whenever more than half of its
entries are dead, so mass cancellation (e.g. tearing down a failed query)
never grows the heap unboundedly and ``pending`` stays O(1).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

from ..errors import SimulationLivelockError
from ..obs.decisions import DecisionLog
from ..obs.trace import NULL_TRACER

#: Sentinel distinguishing "no argument" from "argument is None" on the
#: allocation-lean :meth:`SimKernel.post` path.
_NO_ARG = object()


class Event:
    """Handle to a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "fn", "cancelled", "kernel", "in_heap")

    def __init__(self, time: float, seq: int, fn: Callable[[], None],
                 kernel: "SimKernel | None" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.kernel = kernel
        self.in_heap = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.kernel is not None and self.in_heap:
                self.kernel._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state})"


class SimKernel:
    """A priority-queue event loop over virtual time."""

    #: Compaction only kicks in past this many dead entries (tiny heaps are
    #: cheaper to drain lazily than to rebuild).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self):
        self.now: float = 0.0
        #: Future events: a heap of (time, seq, event|None, fn, arg).
        self._heap: list[tuple] = []
        #: Events at the current virtual time, FIFO.  Always sorted by
        #: (time, seq): entries are appended with time == now and a fresh
        #: seq, and ``now`` never decreases.
        self._soon: deque[tuple] = deque()
        #: The next insertion sequence number (a plain int: ``post`` runs
        #: once per event, and ``next()`` on a counter is a call).
        self._seq = 0
        self._events_processed = 0
        self._cancelled_in_heap = 0
        #: Observability hook (``repro.obs``).  Every component reaches its
        #: tracer through the kernel it already holds; the engine swaps in
        #: a real Tracer when ``EngineConfig.tracing`` asks for one.  The
        #: tracer is read-only w.r.t. simulation state — it never schedules
        #: events or consumes randomness.
        self.tracer = NULL_TRACER
        #: The engine's decision log (``repro.obs.decisions``), reached the
        #: same way and inert in the same sense.
        self.decisions = DecisionLog(self)

    # -- scheduling -------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` after ``delay`` virtual seconds (>= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` at absolute virtual ``time`` (>= now)."""
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < {now}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, kernel=self)
        event.in_heap = True
        entry = (time, event.seq, event, fn, _NO_ARG)
        if time == now:
            self._soon.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return event

    def call_soon(self, fn: Callable[[], None]) -> Event:
        """Run ``fn`` at the current virtual time, after pending same-time
        events already queued (FIFO among equal timestamps)."""
        return self.schedule_at(self.now, fn)

    def post(self, delay: float, fn: Callable, arg=_NO_ARG) -> None:
        """Allocation-lean :meth:`schedule`: no :class:`Event` handle is
        created (the entry cannot be cancelled) and ``fn`` may take one
        positional ``arg``, so hot completion paths pass a bound method
        plus its argument instead of allocating a closure per event."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        entry = (self.now + delay, seq, None, fn, arg)
        if delay == 0.0:
            self._soon.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    # -- cancellation bookkeeping ----------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > self.COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap) + len(self._soon)
        ):
            self._compact()

    @staticmethod
    def _dead(entry: tuple) -> bool:
        event = entry[2]
        return event is not None and event.cancelled

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (heap order is total, so
        the rebuilt heap pops in exactly the same order)."""
        for queue in (self._heap, self._soon):
            live = []
            for entry in queue:
                if self._dead(entry):
                    entry[2].in_heap = False
                else:
                    live.append(entry)
            queue.clear()
            queue.extend(live)
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    # -- execution ----------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events.  O(1)."""
        return len(self._heap) + len(self._soon) - self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Physical queue length including dead entries (introspection)."""
        return len(self._heap) + len(self._soon)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def run(
        self,
        until: float | None = None,
        stop_when: Callable[[], bool] | None = None,
        max_events: int | None = None,
        awaiting=None,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached,
        ``stop_when()`` becomes true, or ``awaiting`` — a query lifecycle
        — is terminal (both checked between events).  ``awaiting`` costs no
        call: its terminal transition stamps ``finished_at``, and the loop
        reads that field.

        When ``until`` is given and the queue drains earlier, the clock is
        advanced to ``until`` so periodic wall-clock measurements stay
        consistent.  ``max_events`` guards against livelock: exceeding it
        raises :class:`SimulationLivelockError`.

        This is the kernel's only dispatch loop: per event the heads of
        the heap and the same-time deque are compared once and the earlier
        entry is popped (``_compact`` rebuilds both queues in place, so the
        local names stay valid across callbacks).
        """
        heap = self._heap
        soon = self._soon
        heappop = heapq.heappop
        processed = 0
        while True:
            if awaiting is not None and awaiting.finished_at is not None:
                return
            if stop_when is not None and stop_when():
                return
            if max_events is not None and processed >= max_events:
                raise SimulationLivelockError(
                    f"simulation exceeded {max_events} events (livelock?)",
                    now=self.now,
                    events_processed=self._events_processed,
                )
            if heap:
                from_soon = soon and soon[0] < heap[0]  # an empty deque is falsy
                entry = soon[0] if from_soon else heap[0]
            elif soon:
                from_soon = True
                entry = soon[0]
            else:
                if until is not None and self.now < until:
                    self.now = until
                return
            time, _seq, event, fn, arg = entry
            dead = event is not None and event.cancelled
            if not dead and until is not None and time > until:
                self.now = until
                return
            if from_soon:
                soon.popleft()
            else:
                heappop(heap)
            if event is not None:
                event.in_heap = False
                if dead:
                    self._cancelled_in_heap -= 1
                    continue
            self.now = time
            self._events_processed += 1
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
            processed += 1
