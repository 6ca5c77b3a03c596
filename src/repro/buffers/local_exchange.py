"""Local exchange: the intra-task pipeline connector (paper Figures 6/7).

A local exchange decouples two pipelines inside one task: sink operators
(tail of the upstream pipeline) push pages in, source operators (head of
the downstream pipeline) pull pages out.  The structure tracks how many
sink drivers feed it so it can relay end pages exactly once to each source
driver when the upstream pipeline completes.  (Intra-task DOP decrease,
Section 4.3, end-signals the source *driver*: ``Driver.request_end``.)
"""

from __future__ import annotations

from collections import deque

from ..pages import Page
from .elastic import WaiterList


class LocalExchange:
    """A shared in-task page queue with end-page accounting."""

    def __init__(self, name: str = "local_exchange"):
        self.name = name
        self._queue: deque[Page] = deque()
        self._producers = 0
        self._producers_finished = 0
        self.not_empty = WaiterList()

    # -- producer side ------------------------------------------------------
    def register_producer(self) -> None:
        self._producers += 1

    def producer_finished(self) -> None:
        self._producers_finished += 1
        if self.upstream_done:
            self.not_empty.notify_all()

    @property
    def upstream_done(self) -> bool:
        return self._producers > 0 and self._producers_finished >= self._producers

    def put(self, page: Page) -> None:
        """Enqueue a data page (sinks are never handed end pages; a sink
        driver that finishes calls ``producer_finished``)."""
        self._queue.append(page)
        self.not_empty.notify_all()

    # -- consumer side ----------------------------------------------------
    def poll(self) -> Page | None:
        """Next page for a source operator.

        Returns an end page when all producers finished and the queue
        drained, ``None`` when the consumer should block and wait.
        """
        if self._queue:
            return self._queue.popleft()
        if self.upstream_done:
            return Page.end()
        return None

    def seal(self) -> None:
        """Retirement: drop the unread pages and the waiters."""
        self._queue.clear()
        self.not_empty = WaiterList()
