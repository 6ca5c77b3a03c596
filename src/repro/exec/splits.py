"""Runtime splits.

* :class:`SystemSplit` — a chunk of a base table on a storage node,
  consumed by table-scan drivers.
* :class:`RemoteSplit` — the address of an upstream task's output buffer
  (task handle + buffer id), consumed by exchange clients.  The task's
  *global remote split set* (paper Section 4.3, Figure 12a) lets newly
  spawned drivers attach to all current upstreams without coordinator
  involvement.
* :class:`SplitFeed` — the per-stage pool of unassigned system splits;
  scan drivers acquire splits morsel-style, preferring local ones, which
  lets scan-stage DOP changes rebalance work naturally.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..data import Table, TableSplit
from ..pages import Page

if TYPE_CHECKING:  # pragma: no cover
    from .task import Task


@dataclass(frozen=True)
class SystemSplit:
    """A scannable chunk of a table, resident on ``storage_node``."""

    table: Table
    info: TableSplit

    @property
    def storage_node(self) -> int:
        return self.info.storage_node

    @property
    def num_rows(self) -> int:
        return self.info.num_rows

    def read(self, offset: int, rows: int, columns: tuple[int, ...] | None = None) -> Page:
        start = self.info.row_start + offset
        stop = min(start + rows, self.info.row_stop)
        if columns is None:
            return self.table.page(start, stop)
        # Read only the columns the scan reads: unread ones cost nothing.
        table = self.table
        return Page(table.schema.select(columns), [table.read(i, start, stop) for i in columns])


@dataclass(frozen=True)
class RemoteSplit:
    """Address of one upstream task's output (node URL + task id in the
    paper; a direct task handle in the simulator)."""

    upstream: "Task"
    buffer_id: int

    @property
    def key(self) -> tuple:
        return (self.upstream.task_id, self.buffer_id)


class SplitFeed:
    """Unassigned system splits of one table-scan stage.

    One deque of ``(sequence, split)`` per storage node holding any, in
    insertion order: a local split is the head of its node's deque, any
    other the lowest-sequence head, so an acquire never walks the splits.
    """

    def __init__(self, splits: list[SystemSplit]):
        self._queues: dict[int, deque] = {}
        self._sequence = itertools.count()
        self.pending_count = 0
        for split in splits:
            self._push(split)
        self.total_rows = sum(s.num_rows for s in splits)
        self.total_bytes = sum(s.info.size_bytes for s in splits)
        self.rows_scanned = 0

    def _push(self, split: SystemSplit) -> None:
        queue = self._queues.setdefault(split.info.storage_node, deque())
        queue.append((next(self._sequence), split))
        self.pending_count += 1

    def acquire(self, preferred_node: int | None = None) -> SystemSplit | None:
        """Take one split: the oldest local to ``preferred_node``, else
        the oldest anywhere."""
        queue = self._queues.get(preferred_node) or min(
            self._queues.values(), key=lambda q: q[0], default=None
        )
        if queue is None:
            return None
        split = queue.popleft()[1]
        if not queue:  # an empty node's deque goes (a feed outlives its scan)
            del self._queues[split.info.storage_node]
        self.pending_count -= 1
        return split

    def release(self, split: SystemSplit, offset: int) -> None:
        """Return the unread remainder of a split (task shutdown path)."""
        if offset >= split.num_rows:
            return
        remainder = TableSplit(
            table=split.info.table,
            split_id=split.info.split_id,
            storage_node=split.info.storage_node,
            row_start=split.info.row_start + offset,
            row_stop=split.info.row_stop,
            size_bytes=int(
                split.info.size_bytes
                * (split.num_rows - offset)
                / max(1, split.num_rows)
            ),
        )
        self._push(SystemSplit(split.table, remainder))

    def record_scan(self, rows: int) -> None:
        self.rows_scanned += rows

    @property
    def rows_remaining(self) -> int:
        return max(0, self.total_rows - self.rows_scanned)

    @property
    def progress(self) -> float:
        if self.total_rows == 0:
            return 1.0
        return min(1.0, self.rows_scanned / self.total_rows)
