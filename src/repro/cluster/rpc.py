"""Coordinator-side RPC accounting.

Accordion's control plane is RESTful; each request costs 1-10 ms (paper
Section 6.2 — Q3's initial plan construction issues 65 requests totalling
~313 ms).  The simulator charges a fixed per-request latency and serialises
control-plane actions through a virtual RPC clock, so query initialization
time and tuning-request latency appear in the measurements exactly like in
the paper.

A *fault hook* decides the outcome of every individual request: ``"ok"``,
``"fail"`` (the request times out and is retried with bounded exponential
backoff), or ``("delay", extra_seconds)``.  The RPC windows of applied
plans (``RpcStorm`` / ``RpcOutage``, :mod:`repro.script.plan`) install
one.  A request that exhausts its retry budget
fails the whole control-plane action; the owning query is torn down through
``on_action_failed`` instead of hanging the event loop.
"""

from __future__ import annotations

import random
from typing import Callable

from ..config import CostModel, FaultConfig
from ..sim import SimKernel

#: Outcome of one request attempt, as returned by a fault hook.
RpcOutcome = "str | tuple[str, float]"


class RpcTracker:
    def __init__(
        self,
        kernel: SimKernel,
        cost: CostModel,
        faults: FaultConfig | None = None,
    ):
        self.kernel = kernel
        self.cost = cost
        self.faults = faults or FaultConfig()
        self.total_requests = 0
        #: Individual request attempts that timed out and were retried.
        self.retried_requests = 0
        #: Requests that exhausted the retry budget (each fails an action).
        self.failed_requests = 0
        #: Requests attributed per query id (65-request Q3 anchor).
        self.query_requests: dict[int, int] = {}
        self._clock = 0.0  # virtual time when the control plane frees up
        self._fault_hook: Callable[[float], object] | None = None
        #: ``(window, rng)`` for every RPC window armed, in arming order.
        self._windows: list = []
        #: Called as ``on_action_failed(query_id, message)`` when an action
        #: gives up; wired to query teardown by the coordinator.
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
    ) -> float:
        """Charge ``count`` requests and run ``fn`` (if any) when they
        complete.

        Returns the absolute virtual time at which ``fn`` fires (or, under
        fault injection, at which the action gave up; ``fn`` is then never
        called and ``on_action_failed`` fires instead).
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
        return self._faulty_sequence(start, count, fn, query_id)

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
    ) -> float:
        """Walk ``count`` requests through the fault hook in virtual time.

        Each request retries up to ``rpc_max_retries`` times; a timed-out
        attempt costs ``rpc_timeout`` plus capped exponential backoff.  The
        walk is computed synchronously from the (deterministic, seeded)
        hook, then the completion — or the give-up — is scheduled at the
        resulting virtual time.
        """
        faults = self.faults
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
                t += faults.rpc_timeout
                if attempt >= faults.rpc_max_retries:
                    self.failed_requests += 1
                    self._clock = max(self._clock, t)
                    self._trace(
                        start, t, count, query_id, retries=retried, failed=True
                    )
                    self._abort_action(query_id, t)
                    return t
                self.retried_requests += 1
                retried += 1
                backoff = min(
                    faults.rpc_backoff_cap,
                    faults.rpc_backoff_base
                    * (faults.rpc_backoff_multiplier ** attempt),
                )
                t += backoff
                attempt += 1
        self._clock = max(self._clock, t)
        self._trace(start, t, count, query_id, retries=retried)
        if fn is not None:
            self.kernel.schedule_at(t, fn)
        return t

    def _abort_action(self, query_id: int | None, t: float) -> None:
        callback = self.on_action_failed
        if callback is None:
            return
        message = (
            f"control-plane request failed after "
            f"{self.faults.rpc_max_retries} retries"
        )
        self.kernel.schedule_at(t, lambda: callback(query_id, message))
