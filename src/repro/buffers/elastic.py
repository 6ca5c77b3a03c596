"""Runtime elastic buffer (paper Section 4.2.2).

A bounded page buffer whose *capacity is controlled by the consumer side*:

* capacities start at one page,
* every time the consumer finds the buffer empty it bumps the capacity
  (and increments the **turn-up counter** — the signal used for runtime
  bottleneck localization, Section 5.1: a stage whose buffers never turn
  up is a computational bottleneck),
* every ``RESIZE_PERIOD`` virtual seconds the consumer re-sizes the buffer
  to match the number of pages it actually consumed in the last period, so
  the cached data volume tracks the consumption rate.

:class:`ElasticCapacity` is that protocol, once.  An exchange receive
buffer (:class:`ElasticPageBuffer`) runs all of it from ``poll``; a task
output buffer (:mod:`repro.buffers.output`) runs only the periodic resize,
from the one ``take`` its consumers call — a consumer that finds an output
buffer empty waits, it does not turn the producer's capacity up.  When
``elastic`` is disabled (Presto baseline mode) the capacity is fixed
(default 32 MB worth of pages) and never adjusts.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..config import BufferConfig
from ..pages import Page
from ..sim import SimKernel

#: Initial elastic capacity in pages (paper: the size of one page).
INITIAL_CAPACITY_PAGES = 1
#: Virtual seconds between consumer-side resize decisions.
RESIZE_PERIOD = 0.5


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


class ElasticCapacity:
    """The consumer-driven capacity protocol, once, for both buffer kinds.

    Its users differ in what they call and in what order, which is part
    of each one's pinned virtual timing (DESIGN.md §5): a task output
    buffer counts what a ``take`` removed and *then* resizes, and never
    turns up; an exchange buffer resizes at the top of ``poll``, turns
    up when it finds nothing, and counts the page afterwards.
    """

    #: Trace span the turn-up/resize instants report under (the owning
    #: task sets it when tracing is on; the class default keeps the common
    #: untraced path allocation-free).
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
        if config.elastic:
            self.capacity = INITIAL_CAPACITY_PAGES
        else:
            self.capacity = max(1, config.fixed_capacity_bytes // avg_page_bytes)
        #: Paper Section 5.1: incremented on every consumer-side capacity
        #: increase; a stalled counter marks a computational bottleneck.
        self.turn_up_counter = 0
        self._consumed_this_period = 0
        self._period_started = kernel.now
        #: Virtual seconds between resizes; never, with elastic off.
        self._resize_every = RESIZE_PERIOD if config.elastic else float("inf")

    def turn_up(self) -> bool:
        """The consumer found nothing to take: double the capacity (up to
        the configured maximum).  True when it grew."""
        config = self.config
        new_capacity = min(config.max_capacity_pages, self.capacity * 2)
        if not config.elastic or new_capacity <= self.capacity:
            return False
        self.capacity = new_capacity
        self.turn_up_counter += 1
        self._instant("turn_up")
        return True

    def consumed(self, pages: int) -> None:
        self._consumed_this_period += pages

    def resize_if_due(self) -> bool:
        """Once per ``RESIZE_PERIOD``: size the buffer to what was consumed
        in the period that just ended.  True when the capacity grew."""
        now = self.kernel.now
        if now - self._period_started < self._resize_every:
            return False
        before = self.capacity
        self.capacity = max(
            INITIAL_CAPACITY_PAGES,
            min(self.config.max_capacity_pages, self._consumed_this_period),
        )
        self._period_started = now
        self._consumed_this_period = 0
        if self.capacity != before:
            self._instant("resize")
        return self.capacity > before

    def _instant(self, what: str) -> None:
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "buffer", what, parent=self.trace_parent,
                buffer=self.name, capacity=self.capacity,
            )


class ElasticPageBuffer(ElasticCapacity):
    """A page queue with consumer-driven capacity management."""

    def __init__(
        self,
        kernel: SimKernel,
        config: BufferConfig,
        name: str = "buffer",
        avg_page_bytes: int = 256 * 1024,
    ):
        super().__init__(kernel, config, name, avg_page_bytes)
        #: Received pages, oldest first; free slots are ``capacity`` minus
        #: its length.
        self.pages: deque[Page] = deque()
        self.not_full = WaiterList()
        self.not_empty = WaiterList()

    # -- producer side ----------------------------------------------------
    def put(self, page: Page) -> None:
        """Enqueue unconditionally (producers check the free slots and
        pause themselves; the elastic protocol grows capacity on the
        consumer side rather than dropping data)."""
        self.pages.append(page)
        self.not_empty.notify_all()

    # -- consumer side ----------------------------------------------------
    def poll(self) -> Page | None:
        """Dequeue one page; adjusts capacity per the elastic protocol."""
        # ``resize_if_due``'s own test, made here so a poll between
        # resizes costs no call.
        if (
            self.kernel.now - self._period_started >= self._resize_every
            and self.resize_if_due()
        ):
            self.not_full.notify_all()
        pages = self.pages
        if not pages:
            if self.turn_up():
                self.not_full.notify_all()
            return None
        page = pages.popleft()
        if not page.is_end:
            self.consumed(1)
        self.not_full.notify_all()
        return page
