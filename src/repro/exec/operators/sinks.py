"""Sink operators: task output, local-exchange sink, coordinator output."""

from __future__ import annotations

from typing import Callable

from ...buffers import LocalExchange, TaskOutputBuffer
from ...config import CostModel
from ...pages import Page
from .base import SinkOperator


class TaskOutputSink(SinkOperator):
    """Delivers pages to the task output buffer (the task output operator
    of the paper — distribution itself is the buffer's job, Section 4.2.1)."""

    name = "task_output"

    def __init__(self, cost: CostModel, buffer: TaskOutputBuffer):
        super().__init__(cost)
        self.buffer = buffer

    def deliver(self, pages: list[Page]) -> None:
        for page in pages:
            self.buffer.put(page)


class LocalExchangeSink(SinkOperator):
    name = "local_exchange_sink"

    def __init__(self, cost: CostModel, exchange: LocalExchange):
        super().__init__(cost, cost.local_exchange_row_cost)
        self.exchange = exchange
        exchange.register_producer()

    def deliver(self, pages: list[Page]) -> None:
        for page in pages:
            self.exchange.put(page)

    def driver_finished(self) -> None:
        self.exchange.producer_finished()


class CoordinatorSink(SinkOperator):
    """Stage-0 output operator: hands result pages to the coordinator."""

    name = "output"

    def __init__(self, cost: CostModel, collect: Callable[[Page], None]):
        super().__init__(cost)
        self.collect = collect

    def deliver(self, pages: list[Page]) -> None:
        for page in pages:
            self.collect(page)
