"""Task output buffers (paper Section 4.2.1).

The redesigned task output buffer owns data distribution, shuffling, and
parallelism-variation adaptation; the task output *operator* only delivers
pages.  Two kinds exist (Figure 10):

* :class:`SharedOutputBuffer` — a single page queue.  ``GATHER`` and
  ``ARBITRARY`` modes let any registered consumer pop the next page
  (work-sharing, used for probe inputs of broadcast joins and gather
  inputs of single-task stages); ``BROADCAST`` mode fans every page out to
  all consumers and keeps a page cache so late-joining consumers (tasks
  created by runtime DOP increases) receive the full stream.

* :class:`ShuffleOutputBuffer` — hash-partitions pages across a *buffer-ID
  group* using shuffle executors that charge CPU to the owning node (this
  is what makes under-provisioned shuffle stages a visible bottleneck,
  Section 6.4.2).  DOP switching (Section 4.5) installs a *new* buffer-ID
  group: cached pages are reshuffled to the new task group while the old
  group keeps draining, and the old group is closed once the new hash
  table is ready.

Buffer IDs equal downstream task sequence numbers, as in Presto.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..config import BufferConfig, CostModel
from ..errors import InvariantViolation, SchedulingError
from ..pages import Page
from ..sim import CpuPool, SimKernel
from ..sql.functions import partition_assignments
from .elastic import ElasticCapacity, WaiterList

if TYPE_CHECKING:  # pragma: no cover
    pass


class OutputMode(enum.Enum):
    GATHER = "gather"        # single consumer (stage DOP fixed at 1)
    ARBITRARY = "arbitrary"  # any consumer takes the next page
    BROADCAST = "broadcast"  # every consumer receives every page
    HASH = "hash"            # hash-partitioned across a buffer-ID group


class ConsumerQueue:
    """Per-buffer-ID view handed to one downstream task."""

    __slots__ = ("buffer_id", "pages", "ended", "end_signal", "on_update")

    def __init__(self, buffer_id: int):
        self.buffer_id = buffer_id
        self.pages: deque[Page] = deque()
        self.ended = False
        self.end_signal: str | None = None
        #: Callbacks fired when pages arrive or the queue ends (exchange
        #: clients register here to start fetches).
        self.on_update = WaiterList()

    def push(self, page: Page) -> None:
        if self.ended:
            raise InvariantViolation(f"page pushed to ended buffer id {self.buffer_id}")
        self.pages.append(page)
        self.on_update.notify_all()

    def end(self, signal: str | None = None) -> None:
        if not self.ended:
            self.ended = True
            self.end_signal = signal
            self.pages.append(Page.end(signal=signal))
            self.on_update.notify_all()


class TaskOutputBuffer:
    """Common machinery: consumer registry, accounting, producer gating."""

    def __init__(
        self,
        kernel: SimKernel,
        config: BufferConfig,
        mode: OutputMode,
        cache_pages: bool = False,
        name: str = "out",
    ):
        self.kernel = kernel
        self.config = config
        self.mode = mode
        self.name = name
        self.consumers: dict[int, ConsumerQueue] = {}
        self.cache_enabled = cache_pages
        self.page_cache: list[Page] = []
        self.finished = False
        self.not_full = WaiterList()
        #: Fired whenever a consumer queue is created (exchange clients
        #: whose buffer id does not exist yet wait here).
        self.on_consumer_added = WaiterList()
        self.capacity = ElasticCapacity(kernel, config, name)
        self.rows_out = 0
        self.pages_out = 0
        self.bytes_out = 0
        #: True once any consumer has taken a data page.  Failure recovery
        #: uses this to decide whether a crashed task may be restarted from
        #: scratch (output never externalized) or not.
        self.ever_fetched = False
        #: Set by ``abort()`` when a crashed task's output is discarded.
        self.aborted = False

    # -- consumer management ----------------------------------------------
    def add_consumer(self, buffer_id: int) -> ConsumerQueue:
        if buffer_id in self.consumers:
            return self.consumers[buffer_id]
        queue = ConsumerQueue(buffer_id)
        self.consumers[buffer_id] = queue
        self._on_consumer_added(queue)
        if self.finished and not self._defer_end_on_add():
            queue.end()
        self.on_consumer_added.notify_all()
        return queue

    def _defer_end_on_add(self) -> bool:
        """Hook: shuffle buffers defer ends for consumers added during a
        group switch until the cache replay drains."""
        return False

    def _on_consumer_added(self, queue: ConsumerQueue) -> None:
        """Hook: broadcast replays the page cache to late joiners."""

    def end_consumer(self, buffer_id: int, signal: str | None = "shutdown") -> None:
        """Elastic shutdown: close one downstream view (paper Section 4.4)."""
        queue = self.consumers.get(buffer_id)
        if queue is not None:
            queue.end(signal)

    def retire_consumer(self, buffer_id: int) -> None:
        """Forget one downstream view entirely (failure recovery: the
        consumer task died and a replacement will register under a new id).
        Unlike :meth:`end_consumer` no end page is delivered."""
        self.consumers.pop(buffer_id, None)

    def consumer(self, buffer_id: int) -> ConsumerQueue:
        try:
            return self.consumers[buffer_id]
        except KeyError:
            raise SchedulingError(f"{self.name}: unknown buffer id {buffer_id}") from None

    # -- producer side ----------------------------------------------------
    @property
    def is_full(self) -> bool:
        return self._queued_pages() >= self.capacity.capacity

    def _queued_pages(self) -> int:
        longest = 0
        for queue in self.consumers.values():
            if len(queue.pages) > longest:
                longest = len(queue.pages)
        return longest

    def put(self, page: Page) -> None:
        raise NotImplementedError

    def task_finished(self) -> None:
        """All drivers of the owning task are done: end every consumer."""
        self.finished = True
        for queue in self.consumers.values():
            queue.end()

    def abort(self) -> None:
        """Discard this buffer (crashed task being restarted, Section 4.4
        analog): all queued and cached pages are dropped and every consumer
        view is closed with an ``aborted`` end signal, so downstream
        exchange clients retire the dead split cleanly.  Only legal while
        ``ever_fetched`` is False — otherwise data already left the buffer
        and a from-scratch restart would duplicate it."""
        if self.aborted:
            return
        if self.ever_fetched:
            raise InvariantViolation(
                f"{self.name}: abort after pages were externalized"
            )
        self.aborted = True
        self.finished = True
        self.page_cache.clear()
        self._discard_internal()
        for queue in self.consumers.values():
            # Drop undelivered data; deliver (or redeliver, for queues that
            # were already closed) a single aborted-end marker so the
            # downstream split retires.  Consumers that already drained an
            # earlier end never fetch again, so no duplicate end is seen.
            queue.pages.clear()
            queue.ended = True
            queue.end_signal = "aborted"
            queue.pages.append(Page.end(signal="aborted"))
            queue.on_update.notify_all()

    def _discard_internal(self) -> None:
        """Hook: drop mode-specific internal queues on abort."""

    # -- consumer side ------------------------------------------------------
    def take(self, buffer_id: int, max_pages: int) -> list[Page]:
        """Pop up to ``max_pages`` pages for one downstream task.

        End pages are delivered in-line.  Applies the elastic capacity
        protocol (turn-up on empty, periodic resize) from the consumer side.
        """
        queue = self.consumer(buffer_id)
        taken: list[Page] = []
        source = self._source_queue(queue)
        while source and len(taken) < max_pages:
            taken.append(source.popleft())
        if not taken and not queue.ended:
            if self.capacity.turn_up():
                self.not_full.notify_all()
        if taken:
            if any(not p.is_end for p in taken):
                self.ever_fetched = True
            self.capacity.consumed(sum(1 for p in taken if not p.is_end))
            self.capacity.resize_if_due()
            self.not_full.notify_all()
        return taken

    def _source_queue(self, queue: ConsumerQueue) -> deque[Page]:
        return queue.pages

    def _account(self, page: Page) -> None:
        self.rows_out += page.num_rows
        self.pages_out += 1
        self.bytes_out += page.size_bytes


class SharedOutputBuffer(TaskOutputBuffer):
    """GATHER / ARBITRARY / BROADCAST output buffer (one page queue)."""

    def __init__(self, kernel, config, mode: OutputMode, cache_pages=False, name="out"):
        if mode is OutputMode.HASH:
            raise ValueError("use ShuffleOutputBuffer for hash distribution")
        super().__init__(kernel, config, mode, cache_pages, name)
        self._shared: deque[Page] = deque()
        #: Failure-recovery lineage: data pages already taken by each
        #: consumer, so a dead consumer's share can be requeued for its
        #: replacement (exactly-once under ARBITRARY/GATHER work sharing).
        self._taken_log: dict[int, list[Page]] = {}

    def _on_consumer_added(self, queue: ConsumerQueue) -> None:
        if self.mode is OutputMode.BROADCAST:
            for page in self.page_cache:
                queue.push(page)
        if self.mode is OutputMode.GATHER and len(self.consumers) > 1:
            raise SchedulingError("gather buffer supports exactly one consumer")

    def put(self, page: Page) -> None:
        if self.aborted:
            return
        self._account(page)
        if self.cache_enabled or self.mode is OutputMode.BROADCAST:
            # Broadcast always caches so that consumers added later (tasks
            # spawned by runtime DOP increases) can replay the full stream.
            self.page_cache.append(page)
        if self.mode is OutputMode.BROADCAST:
            for queue in self.consumers.values():
                if not queue.ended:  # consumer departed via elastic shutdown
                    queue.push(page)
        else:
            self._shared.append(page)
            for queue in self.consumers.values():
                queue.on_update.notify_all()

    def _queued_pages(self) -> int:
        if self.mode is OutputMode.BROADCAST:
            return super()._queued_pages()
        return len(self._shared)

    def _source_queue(self, queue: ConsumerQueue) -> deque[Page]:
        if self.mode is OutputMode.BROADCAST:
            return queue.pages
        return self._shared

    def take(self, buffer_id: int, max_pages: int) -> list[Page]:
        queue = self.consumer(buffer_id)
        if self.mode is OutputMode.BROADCAST:
            return super().take(buffer_id, max_pages)
        taken: list[Page] = []
        # An elastic shutdown of this consumer takes effect immediately —
        # the remaining shared pages belong to the surviving consumers.
        if queue.ended and queue.end_signal == "shutdown":
            while queue.pages:
                taken.append(queue.pages.popleft())
            return taken
        while self._shared and len(taken) < max_pages:
            taken.append(self._shared.popleft())
        # A natural end (task finished) is delivered once the shared queue
        # has been drained.
        if queue.ended and queue.pages:
            if not taken or not self._shared:
                while queue.pages:
                    taken.append(queue.pages.popleft())
        if not taken and not queue.ended:
            if self.capacity.turn_up():
                self.not_full.notify_all()
        if taken:
            data = [p for p in taken if not p.is_end]
            if data:
                self.ever_fetched = True
                self._taken_log.setdefault(buffer_id, []).extend(data)
            self.capacity.consumed(len(data))
            self.capacity.resize_if_due()
            self.not_full.notify_all()
        return taken

    def has_data(self, buffer_id: int) -> bool:
        queue = self.consumers.get(buffer_id)
        if queue is None:
            return False
        if self.mode is OutputMode.BROADCAST:
            return bool(queue.pages)
        return bool(self._shared) or bool(queue.pages)

    def _discard_internal(self) -> None:
        self._shared.clear()
        self._taken_log.clear()

    # -- failure recovery (Section "Fault model & recovery") ---------------
    def requeue_for_retry(self, old_id: int, new_id: int) -> None:
        """Replace a dead consumer with its respawned task's buffer id.

        ``ARBITRARY``/``GATHER``: pages the dead consumer already took are
        requeued at the *front* of the shared queue (any consumer may
        process any page, so exactly-once is preserved).  ``BROADCAST``
        needs no requeue — the page cache replays the full stream to the
        replacement on registration."""
        if self.mode is not OutputMode.BROADCAST:
            lost = self._taken_log.pop(old_id, [])
            if lost:
                self._shared.extendleft(reversed(lost))
        self.retire_consumer(old_id)
        self.add_consumer(new_id)
        for queue in self.consumers.values():
            queue.on_update.notify_all()
        self.not_full.notify_all()


class ShuffleOutputBuffer(TaskOutputBuffer):
    """Hash-partitioning output buffer with shuffle executors (Figure 10).

    Incoming pages are queued for shuffling; shuffle *executors* (CPU work
    items on the owning node) split each page by ``hash(keys) mod n`` and
    append the sub-pages to the per-buffer-ID queues of the active group.
    """

    def __init__(
        self,
        kernel: SimKernel,
        config: BufferConfig,
        key_positions: list[int],
        cpu: CpuPool,
        cost: CostModel,
        cache_pages: bool = False,
        name: str = "shuffle",
    ):
        super().__init__(kernel, config, OutputMode.HASH, cache_pages, name)
        self.key_positions = list(key_positions)
        self.cpu = cpu
        self.cost = cost
        #: The active buffer-ID group: partition index -> buffer id.
        self.group: list[int] = []
        self._pending_shuffles = 0
        self.shuffled_rows = 0
        self.on_drained = WaiterList()
        self._switching = False
        self._restoring = False
        #: Failure-recovery lineage: every sub-page delivered to each
        #: buffer id, replayed when that consumer dies and is respawned.
        self._pushed_log: dict[int, list[Page]] = {}
        #: Dead buffer id -> replacement id; consulted at shuffle commit
        #: time so partitioning work in flight across a retry still lands.
        self._redirects: dict[int, int] = {}

    # -- group management (DOP switching, Section 4.5) ----------------------
    def set_group(self, buffer_ids: list[int]) -> None:
        """Install the initial buffer-ID group."""
        self.group = list(buffer_ids)
        for buffer_id in buffer_ids:
            self.add_consumer(buffer_id)

    def switch_group(self, buffer_ids: list[int], replay_cache: bool = True) -> None:
        """Install a *new* buffer-ID group (DOP switching, Section 4.5).

        Future pages are partitioned across the new group.  When
        ``replay_cache`` is set, all cached pages are reshuffled to the new
        group (hash-table rebuild from the intermediate data cache).  The
        old group's queues are *not* ended here — ``end_group`` closes
        them once the new task group is ready (probe-side switch; see
        ``repro.cluster.topology.regroup``).
        """
        self._switching = True
        try:
            self.group = list(buffer_ids)
            for buffer_id in buffer_ids:
                self.add_consumer(buffer_id)
            if replay_cache:
                for page in self.page_cache:
                    self._schedule_shuffle(page, account=False)
        finally:
            self._switching = False
        if self.finished and self._pending_shuffles == 0:
            self._finish_consumers()

    def end_group(self, buffer_ids: list[int], signal: str | None = "shutdown") -> None:
        """Close a (former) buffer-ID group.

        Ends are deferred until in-flight shuffle work has drained, so
        pages partitioned for the old group before the switch are never
        dropped.
        """
        if self._pending_shuffles > 0:
            self.on_drained.add(lambda: self.end_group(buffer_ids, signal))
            return
        for buffer_id in buffer_ids:
            self.end_consumer(buffer_id, signal)

    # -- producer ----------------------------------------------------------
    def put(self, page: Page) -> None:
        if self.aborted:
            return
        self._account(page)
        if self.cache_enabled:
            self.page_cache.append(page)
        self._schedule_shuffle(page)

    def _schedule_shuffle(self, page: Page, account: bool = True) -> None:
        if not self.group:
            raise InvariantViolation(f"{self.name}: no buffer-ID group installed")
        group = list(self.group)  # bind the group at submission time
        self._pending_shuffles += 1
        cost = (
            page.num_rows * self.cost.shuffle_row_cost * self.cost.cpu_multiplier
            + self.cost.quantum_overhead
        )

        def commit() -> None:
            self._commit_shuffle(page, group)

        self.cpu.submit(cost, commit)

    def _commit_shuffle(self, page: Page, group: list[int]) -> None:
        n = len(group)
        self.shuffled_rows += page.num_rows
        if n == 1:
            parts: list[Page] = [page]
        else:
            # One stable grouping by partition id: a single gather per
            # column, then each partition is a slice of it, its rows in
            # page order.  (16-bit keys take numpy's radix sort.)
            assignments = partition_assignments(
                [page.columns[k] for k in self.key_positions], n
            )
            keys = assignments.astype(np.uint16) if n <= 0x10000 else assignments
            grouped = page.take(np.argsort(keys, kind="stable"))
            stops = np.cumsum(np.bincount(assignments, minlength=n)).tolist()
            parts = [grouped.slice(a, b) for a, b in zip([0] + stops, stops)]
        for buffer_id, part in zip(group, parts):
            if part.num_rows == 0:
                continue
            # Follow retry redirects to a fixed point: work submitted for a
            # buffer-ID group before a consumer crash must land at the
            # replacement consumer's queue.
            while buffer_id in self._redirects:
                buffer_id = self._redirects[buffer_id]
            queue = self.consumers.get(buffer_id)
            if queue is not None and not queue.ended:
                queue.push(part)
                self._pushed_log.setdefault(buffer_id, []).append(part)
        self._pending_shuffles -= 1
        # Pending shuffles count toward fullness, so draining one may
        # unblock producers.
        self.not_full.notify_all()
        if self._pending_shuffles == 0:
            self.on_drained.notify_all()
            if self.finished:
                self._finish_consumers()

    def _queued_pages(self) -> int:
        base = super()._queued_pages()
        return base + self._pending_shuffles

    def _defer_end_on_add(self) -> bool:
        return self._switching or self._restoring

    def task_finished(self) -> None:
        self.finished = True
        if self._pending_shuffles == 0:
            self._finish_consumers()

    def _finish_consumers(self) -> None:
        for queue in self.consumers.values():
            queue.end()

    def has_data(self, buffer_id: int) -> bool:
        queue = self.consumers.get(buffer_id)
        return bool(queue and queue.pages)

    def _discard_internal(self) -> None:
        self._pushed_log.clear()

    # -- failure recovery ---------------------------------------------------
    def requeue_for_retry(self, old_id: int, new_id: int) -> None:
        """Replace a dead consumer at its exact partition position.

        The replacement keeps the dead task's hash-partition slot (same
        ``hash mod n`` index), its delivered sub-pages are replayed from
        the lineage log, and shuffle work still in flight for the old id
        is redirected at commit time."""
        self._redirects[old_id] = new_id
        lost = self._pushed_log.pop(old_id, [])
        self.retire_consumer(old_id)
        self._restoring = True
        try:
            queue = self.add_consumer(new_id)
            for page in lost:
                queue.push(page)
            if lost:
                self._pushed_log[new_id] = list(lost)
        finally:
            self._restoring = False
        self.group = [new_id if g == old_id else g for g in self.group]
        if self.finished and self._pending_shuffles == 0 and not queue.ended:
            queue.end()
