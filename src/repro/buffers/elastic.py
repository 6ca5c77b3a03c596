"""Runtime elastic buffer (paper Section 4.2.2).

A bounded page buffer whose *capacity is controlled by the consumer side*:

* capacities start at one page,
* every time the consumer finds the buffer empty it bumps the capacity
  (and increments the **turn-up counter** — the signal used for runtime
  bottleneck localization, Section 5.1: a stage whose buffers never turn
  up is a computational bottleneck),
* every ``resize_period`` virtual seconds the consumer re-sizes the buffer
  to match the number of pages it actually consumed in the last period, so
  the cached data volume tracks the consumption rate.

The same class backs exchange receive buffers and task output buffers.
When ``elastic`` is disabled (Presto baseline mode) the capacity is fixed
(default 32 MB worth of pages) and never adjusts.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..config import BufferConfig
from ..pages import Page
from ..sim import SimKernel


class WaiterList:
    """Callbacks to invoke once when a condition becomes true."""

    __slots__ = ("_waiters",)

    def __init__(self):
        self._waiters: list[Callable[[], None]] = []

    def add(self, fn: Callable[[], None]) -> None:
        self._waiters.append(fn)

    def notify_all(self) -> None:
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for fn in waiters:
                fn()

    def __len__(self) -> int:
        return len(self._waiters)


class ElasticPageBuffer:
    """A page queue with consumer-driven capacity management."""

    #: Trace span this buffer's turn-up/resize instants report under (the
    #: owning task sets it when tracing is on; class default keeps the
    #: common untraced path allocation-free).
    trace_parent: int | None = None

    def __init__(
        self,
        kernel: SimKernel,
        config: BufferConfig,
        name: str = "buffer",
        avg_page_bytes: int = 256 * 1024,
    ):
        self.kernel = kernel
        self.config = config
        self.name = name
        self._queue: deque[Page] = deque()
        if config.elastic:
            self.capacity = max(1, config.initial_capacity_pages)
        else:
            self.capacity = max(1, config.fixed_capacity_bytes // avg_page_bytes)
        #: Paper Section 5.1: incremented on every consumer-side capacity
        #: increase; a stalled counter marks a computational bottleneck.
        self.turn_up_counter = 0
        self._consumed_this_period = 0
        self._period_started = kernel.now
        self.total_pages_in = 0
        self.total_pages_out = 0
        self.total_rows_out = 0
        self.not_full = WaiterList()
        self.not_empty = WaiterList()
        self.closed = False

    # -- state -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def free_slots(self) -> int:
        return max(0, self.capacity - len(self._queue))

    # -- producer side ----------------------------------------------------
    def put(self, page: Page) -> None:
        """Enqueue unconditionally (producers check ``is_full`` and block
        themselves; the elastic protocol grows capacity on the consumer
        side rather than dropping data)."""
        self._queue.append(page)
        self.total_pages_in += 1
        self.not_empty.notify_all()

    # -- consumer side ----------------------------------------------------
    def poll(self) -> Page | None:
        """Dequeue one page; adjusts capacity per the elastic protocol."""
        self._maybe_resize()
        if not self._queue:
            if self.config.elastic and not self.closed:
                self._turn_up()
            return None
        page = self._queue.popleft()
        self.total_pages_out += 1
        if not page.is_end:
            self.total_rows_out += page.num_rows
            self._consumed_this_period += 1
        self.not_full.notify_all()
        return page

    def peek(self) -> Page | None:
        return self._queue[0] if self._queue else None

    def _turn_up(self) -> None:
        new_capacity = min(self.config.max_capacity_pages, self.capacity * 2)
        if new_capacity > self.capacity:
            self.capacity = new_capacity
            self.turn_up_counter += 1
            tracer = self.kernel.tracer
            if tracer.enabled:
                tracer.instant(
                    "buffer", "turn_up", parent=self.trace_parent,
                    buffer=self.name, capacity=new_capacity,
                )
            self.not_full.notify_all()

    def _maybe_resize(self) -> None:
        if not self.config.elastic:
            return
        now = self.kernel.now
        elapsed = now - self._period_started
        if elapsed < self.config.resize_period:
            return
        # Size the buffer to roughly what was consumed in the last period.
        target = max(
            self.config.initial_capacity_pages,
            min(self.config.max_capacity_pages, self._consumed_this_period),
        )
        grew = target > self.capacity
        changed = target != self.capacity
        self.capacity = target
        if changed:
            tracer = self.kernel.tracer
            if tracer.enabled:
                tracer.instant(
                    "buffer", "resize", parent=self.trace_parent,
                    buffer=self.name, capacity=target,
                )
        if grew:
            self.not_full.notify_all()
        self._period_started = now
        self._consumed_this_period = 0

    def close(self) -> None:
        self.closed = True
        self.not_empty.notify_all()
