"""Source operators: table scan, exchange, local-exchange source."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...buffers import LocalExchange
from ...buffers.elastic import WaiterList
from ...config import CostModel
from ...pages import Page
from ...sim import SimKernel, transfer
from ..exchange_client import ExchangeClient
from ..splits import SplitFeed, SystemSplit
from .base import SourceOperator

if TYPE_CHECKING:  # pragma: no cover
    from ...cluster.node import Node


class ScanSource(SourceOperator):
    """Reads table pages from system splits acquired morsel-style.

    Splits local to the task's node are read directly; remote splits are
    transferred over the storage node's NIC before processing (the driver
    blocks for the transfer duration).
    """

    name = "table_scan"

    def __init__(
        self,
        kernel: SimKernel,
        cost: CostModel,
        feed: SplitFeed,
        node: "Node",
        page_rows: int,
        storage_nodes: dict[int, "Node"] | None = None,
        column_indexes: tuple[int, ...] | None = None,
    ):
        self.kernel = kernel
        self.cost = cost
        self.row_cost = cost.scan_row_cost
        self.feed = feed
        self.node = node
        self.page_rows = page_rows
        self.column_indexes = column_indexes
        self.storage_nodes = storage_nodes or {}
        self.current: SystemSplit | None = None
        self.offset = 0
        self.rows_scanned = 0
        self._pending_page: Page | None = None
        self._transfer_waiters = WaiterList()
        self._transferring = False
        #: Failure-recovery bookkeeping: every split this source acquired
        #: (for full-restart release), the scan progress it charged to the
        #: feed (for compensation), and the page currently in network
        #: transfer whose rows were charged but never delivered.
        self._acquired: list[SystemSplit] = []
        self._recorded_rows = 0
        self._inflight: tuple[SystemSplit, int, Page] | None = None

    # -- SourceOperator -----------------------------------------------------
    def poll(self) -> Page | None:
        if self._pending_page is not None:
            page, self._pending_page = self._pending_page, None
            self._inflight = None
            return page
        if self._transferring:
            return None
        while True:
            if self.current is None:
                self.current = self.feed.acquire(preferred_node=self.node.id)
                self.offset = 0
                if self.current is None:
                    return Page.end()
                self._acquired.append(self.current)
            split = self.current
            page = split.read(self.offset, self.page_rows, self.column_indexes)
            self.offset += page.num_rows
            if self.offset >= split.num_rows:
                self.current = None
            if page.num_rows == 0:
                continue
            break
        self.rows_scanned += page.num_rows
        self.feed.record_scan(page.num_rows)
        self._recorded_rows += page.num_rows
        storage = self.storage_nodes.get(split.storage_node)
        if storage is not None and storage is not self.node and storage.id != self.node.id:
            self._start_transfer(storage, split, page)
            return None
        return page

    def _start_transfer(self, storage: "Node", split: SystemSplit, page: Page) -> None:
        self._transferring = True
        self._inflight = (split, self.offset - page.num_rows, page)

        def commit() -> None:
            self._transferring = False
            self._pending_page = page
            self._transfer_waiters.notify_all()

        # A dead storage node's splits stay readable through durable
        # disaggregated storage: only our NIC is occupied (src=None).
        transfer(
            self.kernel,
            storage.nic if storage.alive else None,
            self.node.nic,
            page.size_bytes,
            self.cost.network_latency,
            commit,
        )

    def waiters(self) -> WaiterList:
        return self._transfer_waiters

    def shutdown(self) -> None:
        """Return the unread remainder of the current split to the feed."""
        if self.current is not None:
            self.feed.release(self.current, self.offset)
            self.current = None

    # -- failure recovery ---------------------------------------------------
    def release_unfinished(self) -> None:
        """Crash cleanup for a *resumable* scan: return undelivered work.

        The remainder of the current split goes back to the feed, and a
        page caught mid-transfer (rows already charged to the feed but
        never delivered to an operator) is returned with a compensating
        ``record_scan``, so the respawned task re-reads exactly the
        missing rows and feed progress stays exact."""
        inflight, self._inflight = self._inflight, None
        self._pending_page = None
        self._transferring = False
        if inflight is not None:
            split, start, page = inflight
            if self.current is split:
                self.offset = start
            else:
                self.feed.release(split, start)
            self.feed.record_scan(-page.num_rows)
            self._recorded_rows -= page.num_rows
            self.rows_scanned -= page.num_rows
        if self.current is not None:
            self.feed.release(self.current, self.offset)
            self.current = None

    def restart_release(self) -> None:
        """Crash cleanup for a *from-scratch* restart: return every split
        this source ever acquired and undo all feed progress it charged."""
        self._inflight = None
        self._pending_page = None
        self._transferring = False
        self.current = None
        self.offset = 0
        for split in self._acquired:
            self.feed.release(split, 0)
        self._acquired = []
        self.feed.record_scan(-self._recorded_rows)
        self._recorded_rows = 0
        self.rows_scanned = 0


class ExchangeSource(SourceOperator):
    """Pulls pages from the task's shared exchange client."""

    name = "exchange"

    def __init__(self, cost: CostModel, client: ExchangeClient):
        self.cost = cost
        self.row_cost = cost.exchange_row_cost
        self.client = client
        self.poll = client.poll

    def waiters(self) -> WaiterList:
        return self.client.waiters()


class LocalExchangeSource(SourceOperator):
    name = "local_exchange_source"

    def __init__(self, cost: CostModel, exchange: LocalExchange):
        self.cost = cost
        self.row_cost = cost.local_exchange_row_cost
        self.exchange = exchange
        self.poll = exchange.poll

    def waiters(self) -> WaiterList:
        return self.exchange.not_empty
