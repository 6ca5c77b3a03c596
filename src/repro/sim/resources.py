"""Simulated hardware resources: CPU core pools and NIC links.

Each simulated node owns a :class:`CpuPool` (drivers and shuffle executors
occupy cores for the virtual duration of their work) and a :class:`NicQueue`
(page transfers occupy link bandwidth).  Contention on these resources is
what makes DOP tuning behave like the paper: adding drivers helps until a
node's cores saturate; shuffling from too few nodes makes the NIC/CPU of
those nodes the bottleneck.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable

from .kernel import SimKernel


class CpuPool:
    """A fixed number of cores executing queued work items.

    Work is submitted as ``(cost_seconds, priority, fn)``; ``fn`` fires when
    the item has held a core for ``cost_seconds``.  Lower priority values run
    first (the task executor uses this for its multi-level feedback queue).
    Utilization is tracked as a cumulative busy-core-seconds integral so the
    auto-tuner can estimate spare CPU capacity (paper Section 5.3).
    """

    def __init__(self, kernel: SimKernel, cores: int, name: str = "cpu"):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.kernel = kernel
        self.cores = cores
        self.name = name
        self._queue: list[tuple[float, int, tuple]] = []
        self._seq = itertools.count()
        self.busy = 0
        self._busy_integral = 0.0
        self._last_change = 0.0
        #: Node death (fault injection): no new work is granted a core.
        self.halted = False

    # -- utilization accounting -----------------------------------------
    def _account(self) -> None:
        now = self.kernel.now
        self._busy_integral += self.busy * (now - self._last_change)
        self._last_change = now

    def busy_core_seconds(self) -> float:
        """Cumulative busy integral up to the current virtual time."""
        self._account()
        return self._busy_integral

    # -- execution ----------------------------------------------------------
    def submit(self, cost: float, fn: Callable[[], None], priority: float = 0.0) -> None:
        """Queue a work item of known cost; ``fn`` runs after holding a
        core for ``cost`` virtual seconds."""
        if cost < 0:
            raise ValueError("cost must be >= 0")
        self._push(priority, "submit", cost, fn)

    def acquire(
        self,
        run: Callable[[], tuple[float, Callable[[], None]]],
        priority: float = 0.0,
    ) -> None:
        """Grant a core, *then* determine the work.

        ``run`` executes once a core is granted and returns
        ``(cost, commit)``; the core is held for ``cost`` virtual seconds
        and ``commit`` fires when it is released.  Drivers use this so that
        input is consumed only when they are actually scheduled.

        An idle core with nobody waiting runs ``run`` at once, in this one
        frame: :meth:`_push`'s idle branch and :meth:`_start` with its
        :meth:`_account`, inlined (a driver asks once per quantum,
        DESIGN.md §10.1).  Everything that queues goes through
        :meth:`_push`.
        """
        if self.busy < self.cores and not self._queue and not self.halted:
            now = self.kernel.now
            self._busy_integral += self.busy * (now - self._last_change)
            self._last_change = now
            self.busy += 1
            cost, fn = run()
            if cost < 0:
                raise ValueError("cost must be >= 0")
            self.kernel.post(cost, self._complete, fn)
            return
        self._push(priority, "acquire", 0.0, run)

    def _push(self, priority: float, kind: str, cost: float, fn) -> None:
        if self.halted:
            # Committed data movements ('submit', e.g. shuffle spool writes)
            # still land — task output is spooled to durable storage in the
            # fault model.  Deferred-decision work ('acquire', driver quanta)
            # dies with the node.
            if kind == "submit":
                fn()
            return
        if self.busy < self.cores and not self._queue:
            # An idle core and nobody waiting: the heap would hand this
            # very item straight back (DESIGN.md §10.1).
            self._start(kind, cost, fn)
            return
        heapq.heappush(self._queue, (priority, next(self._seq), (kind, cost, fn)))
        self._grant()

    def halt(self) -> None:
        """Revoke all cores (node crash).  Crashes are quantum-atomic:
        in-flight grants still fire their completion, queued committed
        writes ('submit') flush to the durable spool immediately, and
        queued deferred-decision items ('acquire') are dropped."""
        if self.halted:
            return
        self.halted = True
        queue, self._queue = self._queue, []
        for _, _, (kind, _cost, fn) in sorted(queue):
            if kind == "submit":
                fn()

    def _grant(self) -> None:
        if self.halted:
            return
        while self.busy < self.cores and self._queue:
            self._start(*heapq.heappop(self._queue)[2])

    def _start(self, kind: str, cost: float, fn) -> None:
        # The core is taken before an 'acquire' callback runs: a wake-up
        # inside it re-enters _push (driver quantum -> buffer space ->
        # co-located driver -> acquire) and must not be handed this same
        # core (DESIGN.md §10.1).
        self._account()
        self.busy += 1
        if kind == "acquire":
            cost, fn = fn()
            if cost < 0:
                raise ValueError("cost must be >= 0")
        self.kernel.post(cost, self._complete, fn)

    def _complete(self, fn: Callable[[], None]) -> None:
        now = self.kernel.now  # _account, inline: once per quantum
        self._busy_integral += self.busy * (now - self._last_change)
        self._last_change = now
        self.busy -= 1
        try:
            fn()
        finally:
            if self._queue:
                self._grant()


class NicQueue:
    """A full-duplex network link with finite bandwidth.

    Transfers occupy the link serially per direction: a transfer of ``n``
    bytes holds the queue for ``n / bytes_per_second`` virtual seconds.
    """

    def __init__(self, kernel: SimKernel, bytes_per_second: float, name: str = "nic"):
        if bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        self.kernel = kernel
        self.bytes_per_second = bytes_per_second
        self.name = name
        self._pending: deque[tuple[float, Callable[[], None]]] = deque()
        self._active = False
        self._current: Callable[[], None] | None = None
        self.bytes_transferred = 0.0
        self._busy_integral = 0.0

    def occupy(self, nbytes: float, fn: Callable[[], None]) -> None:
        """Hold the link for ``nbytes`` worth of time, then call ``fn``."""
        duration = nbytes / self.bytes_per_second
        self.bytes_transferred += nbytes
        if self._active:
            self._pending.append((duration, fn))
            return
        if self._pending:
            # Called from a completion callback, before the link moved on:
            # the oldest waiting transfer starts, this one waits.
            self._pending.append((duration, fn))
            duration, fn = self._pending.popleft()
        # _start, inline: an idle link is the common case.
        self._active = True
        self._current = fn
        self._busy_integral += duration
        self.kernel.post(duration, self._transfer_done)

    def _start(self, duration: float, fn: Callable[[], None]) -> None:
        self._active = True
        self._current = fn
        self._busy_integral += duration
        # The link is serial: at most one transfer is in flight, so its
        # completion can live in ``_current`` and the kernel calls the
        # bound method below — no per-transfer closure.
        self.kernel.post(duration, self._transfer_done)

    def _transfer_done(self) -> None:
        fn = self._current
        self._current = None
        self._active = False
        try:
            fn()
        finally:
            if not self._active and self._pending:
                self._start(*self._pending.popleft())

    def busy_seconds(self) -> float:
        """Cumulative link-busy virtual seconds granted so far."""
        return self._busy_integral


def transfer(
    kernel: SimKernel,
    src: NicQueue | None,
    dst: NicQueue,
    nbytes: float,
    latency: float,
    fn: Callable[[], None],
) -> None:
    """Move ``nbytes`` from ``src`` to ``dst``: both NICs are occupied and
    ``fn`` fires after the slower of the two plus fixed ``latency``.

    Loopback transfers (``src is dst``) skip the NIC entirely — intra-node
    data movement does not consume network bandwidth.  ``src=None`` models
    a read from durable disaggregated storage (the source node is dead but
    its spooled data survives): only the destination NIC is occupied.
    """
    if src is None:
        dst.occupy(nbytes, lambda: kernel.post(latency, fn))
        return
    if src is dst:
        kernel.post(latency, fn)
        return

    remaining = 2

    def one_side_done() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            kernel.post(latency, fn)

    src.occupy(nbytes, one_side_done)
    dst.occupy(nbytes, one_side_done)
