"""Coordinator-side RPC accounting.

Accordion's control plane is RESTful; each request costs 1-10 ms (paper
Section 6.2 — Q3's initial plan construction issues 65 requests totalling
~313 ms).  The simulator charges a fixed per-request latency and serialises
control-plane actions through a virtual RPC clock, so query initialization
time and tuning-request latency appear in the measurements exactly like in
the paper.

A *fault hook* decides the outcome of every individual request: ``"ok"``,
``"fail"`` (the request times out and is retried with exponential
backoff), or ``("delay", extra_seconds)``.  The RPC windows of applied
plans (``RpcStorm`` / ``RpcOutage``, :mod:`repro.script.plan`) install
one.  A request that exhausts its retry budget
fails the whole control-plane action: the action's own ``on_give_up``
runs if it has one, else ``on_action_failed`` tears down the owning
query instead of hanging the event loop.
"""

from __future__ import annotations

import random
from typing import Callable

from ..config import CostModel
from ..sim import SimKernel

#: Outcome of one request attempt, as returned by a fault hook.
RpcOutcome = "str | tuple[str, float]"

#: Retries of one failed request before its whole action is failed.
MAX_RETRIES = 3
#: Virtual seconds before a lost request is declared failed.
TIMEOUT = 0.05
#: Backoff before the first retry; each further retry doubles it, so
#: the three retries back off 0.01, 0.02 and 0.04 s.
BACKOFF_BASE = 0.01
BACKOFF_MULTIPLIER = 2.0


class RpcTracker:
    def __init__(self, kernel: SimKernel, cost: CostModel):
        self.kernel = kernel
        self.cost = cost
        self.total_requests = 0
        #: Individual request attempts that timed out and were retried.
        self.retried_requests = 0
        #: Requests that exhausted the retry budget (each fails an action).
        self.failed_requests = 0
        #: Requests attributed per query id (65-request Q3 anchor), for
        #: the queries ``coordinator.queries`` keeps (DESIGN.md §17).
        self.query_requests: dict[int, int] = {}
        self._clock = 0.0  # virtual time when the control plane frees up
        self._fault_hook: Callable[[float], object] | None = None
        #: ``(window, rng)`` for every RPC window armed, in arming order.
        self._windows: list = []
        #: Called as ``on_action_failed(query_id, message)`` when an action
        #: without an ``on_give_up`` of its own gives up; wired to query
        #: teardown by the coordinator.
        self.on_action_failed: Callable[[int | None, str], None] | None = None

    # -- introspection -----------------------------------------------------
    @property
    def control_plane_busy_until(self) -> float:
        """Absolute virtual time at which the control plane goes idle."""
        return self._clock

    def requests_for(self, query_id: int) -> int:
        return self.query_requests.get(query_id, 0)

    # -- fault injection ---------------------------------------------------
    def set_fault_hook(self, hook: Callable[[float], object] | None) -> None:
        """Install a per-request outcome hook (see module docstring)."""
        self._fault_hook = hook

    def add_fault_window(self, window, rng: random.Random) -> None:
        """Arm an ``RpcStorm`` / ``RpcOutage``: a request inside it takes
        the window's outcome, drawn from ``rng`` (its plan's seed).  The
        windows of every applied plan stay armed; the first to decide wins."""
        self._windows.append((window, rng))
        self._fault_hook = self._window_outcome

    def _window_outcome(self, t: float):
        for window, rng in self._windows:
            if window.start <= t < window.stop:
                outcome = window.outcome(rng)
                if outcome is not None:
                    return outcome
        return "ok"

    # -- request accounting ------------------------------------------------
    def after_requests(
        self,
        count: int,
        fn: Callable[[], None] | None,
        query_id: int | None = None,
        on_give_up: Callable[[str], None] | None = None,
    ) -> float:
        """Charge ``count`` requests and run ``fn`` (if any) when they
        complete.

        Returns the absolute virtual time at which ``fn`` fires (or, under
        fault injection, at which the action gave up; ``fn`` is then never
        called and ``on_give_up(message)`` fires instead, or
        ``on_action_failed`` when the action has no ``on_give_up``).
        """
        self._count(count, query_id)
        start = max(self.kernel.now, self._clock)
        if self._fault_hook is None:
            finish = start + count * self.cost.rpc_request_cost
            self._clock = finish
            self._trace(start, finish, count, query_id)
            if fn is not None:
                self.kernel.schedule_at(finish, fn)
            return finish
        return self._faulty_sequence(start, count, fn, query_id, on_give_up)

    def charge(self, count: int, query_id: int | None = None) -> float:
        """Charge requests without a completion callback."""
        return self.after_requests(count, None, query_id)

    def _count(self, count: int, query_id: int | None) -> None:
        self.total_requests += count
        if query_id is not None:
            self.query_requests[query_id] = (
                self.query_requests.get(query_id, 0) + count
            )

    def _trace(
        self, start: float, end: float, count: int, query_id: int | None, **meta
    ) -> None:
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.complete(
                "rpc",
                f"rpc x{count}",
                start,
                end,
                parent=tracer.root_for_query(query_id),
                node="coordinator",
                count=count,
                query_id=query_id,
                **meta,
            )

    # -- faulty request sequencing ----------------------------------------
    def _faulty_sequence(
        self,
        start: float,
        count: int,
        fn: Callable[[], None] | None,
        query_id: int | None,
        on_give_up: Callable[[str], None] | None,
    ) -> float:
        """Walk ``count`` requests through the fault hook in virtual time.

        Each request retries up to ``MAX_RETRIES`` times; a timed-out
        attempt costs ``TIMEOUT`` plus exponential backoff.  The
        walk is computed synchronously from the (deterministic, seeded)
        hook, then the completion — or the give-up — is scheduled at the
        resulting virtual time.
        """
        t = start
        retried = 0
        for _ in range(count):
            attempt = 0
            while True:
                outcome = self._fault_hook(t)
                if outcome == "ok" or outcome is None:
                    t += self.cost.rpc_request_cost
                    break
                if isinstance(outcome, tuple) and outcome[0] == "delay":
                    t += self.cost.rpc_request_cost + float(outcome[1])
                    break
                # "fail": the request is lost and times out.
                t += TIMEOUT
                if attempt >= MAX_RETRIES:
                    self.failed_requests += 1
                    self._clock = max(self._clock, t)
                    self._trace(
                        start, t, count, query_id, retries=retried, failed=True
                    )
                    self._abort_action(query_id, t, on_give_up)
                    return t
                self.retried_requests += 1
                retried += 1
                t += BACKOFF_BASE * (BACKOFF_MULTIPLIER ** attempt)
                attempt += 1
        self._clock = max(self._clock, t)
        self._trace(start, t, count, query_id, retries=retried)
        if fn is not None:
            self.kernel.schedule_at(t, fn)
        return t

    def _abort_action(
        self,
        query_id: int | None,
        t: float,
        on_give_up: Callable[[str], None] | None,
    ) -> None:
        message = f"control-plane request failed after {MAX_RETRIES} retries"
        if on_give_up is not None:
            self.kernel.schedule_at(t, lambda: on_give_up(message))
            return
        callback = self.on_action_failed
        if callback is not None:
            self.kernel.schedule_at(t, lambda: callback(query_id, message))
