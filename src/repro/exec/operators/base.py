"""Operator interfaces for driver execution.

A driver's pipeline is ``source -> transforms -> sink``.  Each driver
quantum takes one page from the source, pushes it through every transform,
and delivers the resulting pages to the sink; the virtual CPU cost of the
quantum is the sum of the costs reported by each step.

End pages (:meth:`Page.is_end`) travel through the chain (the paper's
"end page relay game", Figure 13): stateless transforms relay them
immediately; stateful transforms first flush their results, then relay.
"""

from __future__ import annotations

from ...config import CostModel
from ...pages import Page
from ...buffers.elastic import WaiterList


class TransformOperator:
    """A mid-pipeline operator: one input page -> zero or more outputs."""

    name = "transform"
    #: False when :meth:`waits_on` can never return a waiter list; the
    #: driver then skips this operator in its per-quantum readiness scan.
    may_wait = False

    def __init__(self, cost: CostModel):
        self.cost = cost
        #: Set by operators that can complete early (LIMIT): the driver
        #: sends an end page down the chain behind this operator's output
        #: without draining the source.
        self.done_early = False

    def cpu(self, rows: int, per_row: float) -> float:
        return rows * per_row * self.cost.cpu_multiplier

    def process(self, page: Page) -> tuple[list[Page], float]:
        """Transform ``page``; returns (output pages, cpu cost).

        ``page`` may be an end page: the operator must flush any state
        and append the end page after its outputs.
        """
        raise NotImplementedError

    def waits_on(self) -> WaiterList | None:
        """Non-None when the operator cannot accept input yet (e.g. a join
        probe waiting for the hash table); the driver blocks on the list."""
        return None


class SourceOperator:
    """Head of a pipeline: produces pages from splits/exchanges."""

    name = "source"
    #: CPU seconds per row polled, which drivers charge into the quantum
    #: (``rows * row_cost * cpu_multiplier``; an end page has no rows).
    row_cost = 0.0

    def poll(self) -> Page | None:
        """Next page, or ``None`` to block.

        Returns an end page exactly once per driver when exhausted.  The
        exchange sources bind their queue's own ``poll`` here, so a
        driver's poll is one call into the buffer.
        """
        raise NotImplementedError

    def waiters(self) -> WaiterList:
        """Where to register for a wake-up when output may be available."""
        raise NotImplementedError


class SinkOperator:
    """Tail of a pipeline: absorbs pages into buffers/bridges."""

    name = "sink"
    #: The task output buffer behind the sink: its ``is_full`` /
    #: ``not_full`` gate the driver.  None: the sink never blocks.
    buffer = None

    def __init__(self, cost: CostModel, row_cost: float | None = None):
        """``row_cost``: CPU seconds per row absorbed, which drivers charge
        into the quantum before delivery, as ``rows * row_cost *
        cpu_multiplier`` (default: the task output operator's)."""
        self.cost = cost
        self.row_cost = cost.task_output_row_cost if row_cost is None else row_cost

    def deliver(self, pages: list[Page]) -> None:
        """Absorb pages (end pages excluded).  Their row cost is already
        charged; the driver ignores any return value."""
        raise NotImplementedError

    def driver_finished(self) -> None:
        """Called once when the owning driver completes its end relay."""
