"""Task output buffers (paper Section 4.2.1).

The redesigned task output buffer owns data distribution, shuffling, and
parallelism-variation adaptation; the task output *operator* only delivers
pages.  There is one class per distribution (Figure 10), made by
:func:`make_output_buffer`:

* :class:`BroadcastOutputBuffer` — every consumer's queue receives every
  page, and a page cache replays the full stream to late-joining consumers
  (tasks created by runtime DOP increases).

* :class:`ShuffleOutputBuffer` — hash-partitions pages across a *buffer-ID
  group* using shuffle executors that charge CPU to the owning node (this
  is what makes under-provisioned shuffle stages a visible bottleneck,
  Section 6.4.2).  DOP switching (Section 4.5) installs a *new* buffer-ID
  group: cached pages are reshuffled to the new task group while the old
  group keeps draining, and the old group is closed once the new hash
  table is ready.

* :class:`SharedOutputBuffer` — ``ARBITRARY`` and ``GATHER``: one page
  queue from which any registered consumer pops the next page
  (work-sharing, used for probe inputs of broadcast joins and gather
  inputs of single-task stages).

Buffer IDs equal downstream task sequence numbers, as in Presto.

**The hand-off.**  A consumer knows two calls.  ``take(buffer_id, n)``
pops up to ``n`` pages, the end page in-line and last; it returns ``[]``
and changes nothing when there is nothing to take, and an unknown id is a
``SchedulingError``.  ``wait(buffer_id, wake)``, after an empty ``take``,
registers the one-shot ``wake`` for the next page or end and returns True
— or returns False: the id ended and is drained.  A ``take`` that removed
pages counts them and then resizes the capacity (§4.2.2); an output
buffer never turns its capacity *up* — only exchange receive buffers do.
Producers and the control plane use ``put`` / ``is_full`` / ``not_full``,
``add_consumer`` / ``end_consumer`` and ``when_drained``.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Sequence

import numpy as np

from ..config import BufferConfig, CostModel
from ..errors import InvariantViolation, SchedulingError
from ..pages import Page
from ..sim import CpuPool, SimKernel
from ..sql.functions import partition_assignments
from .elastic import ElasticCapacity, WaiterList


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
        #: Callbacks fired when pages arrive or the queue ends (``wait``
        #: registers exchange clients here).
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
    """Consumer registry, accounting, producer gating and the hand-off,
    over one page queue per consumer (broadcast and hash keep it so)."""

    def __init__(self, kernel: SimKernel, config: BufferConfig, name: str = "out"):
        self.kernel = kernel
        self.config = config
        self.name = name
        self.consumers: dict[int, ConsumerQueue] = {}
        self.finished = False
        self.not_full = WaiterList()
        self.capacity = ElasticCapacity(kernel, config, name)
        self.rows_out = 0
        self.bytes_out = 0
        #: True once any consumer has taken a data page.  Failure recovery
        #: uses this to decide whether a crashed task may be restarted from
        #: scratch (output never externalized) or not.
        self.ever_fetched = False
        #: Set by ``abort()`` when a crashed task's output is discarded.
        self.aborted = False

    # -- consumer management ----------------------------------------------
    def add_consumer(self, buffer_id: int) -> ConsumerQueue:
        """Open a buffer id (idempotent); on a finished buffer the new
        view ends at once, after whatever ``_open`` replayed into it."""
        queue = self.consumers.get(buffer_id)
        if queue is None:
            queue = self._open(buffer_id)
            if self.finished:
                queue.end()
        return queue

    def _open(self, buffer_id: int) -> ConsumerQueue:
        queue = self.consumers[buffer_id] = ConsumerQueue(buffer_id)
        return queue

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

    # -- producer side ----------------------------------------------------
    #: Pages between ``put`` and a consumer's queue (a shuffle's executors).
    _pending_shuffles = 0

    @property
    def is_full(self) -> bool:
        """The longest consumer queue, plus the pages on their way to it,
        holds a capacity's worth."""
        room = self.capacity.capacity - self._pending_shuffles
        if room <= 0:
            return True
        for queue in self.consumers.values():
            if len(queue.pages) >= room:
                return True
        return False

    def put(self, page: Page) -> None:
        raise NotImplementedError

    def task_finished(self) -> None:
        """All drivers of the owning task are done: end every consumer."""
        self.finished = True
        for queue in self.consumers.values():
            queue.end()

    def when_drained(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once no page is between ``put`` and a consumer's
        queue: at once here; a shuffle buffer waits for its executors."""
        fn()

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
        """Hook: drop the class's own queues, caches and lineage on abort."""

    def seal(self) -> None:
        """Retirement: drop every page, consumer view and waiter; the
        counters (``rows_out``, ``bytes_out``, ``ever_fetched``) stay."""
        self._discard_internal()
        self.consumers = {}
        self.not_full = WaiterList()

    # -- consumer side: the hand-off ----------------------------------------
    def take(self, buffer_id: int, max_pages: int) -> list[Page]:
        """Pop up to ``max_pages`` pages for one downstream task, the end
        page in-line; ``[]``, and nothing changed, when there are none."""
        try:
            queue = self.consumers[buffer_id]
        except KeyError:
            raise SchedulingError(f"{self.name}: unknown buffer id {buffer_id}") from None
        taken = self._pop(queue, max_pages)
        if taken:
            # At most one end page, and it comes last.  Count, then resize.
            data = len(taken) - taken[-1].is_end
            if data:
                self.ever_fetched = True
            self.capacity.consumed(data)
            self.capacity.resize_if_due()
            self.not_full.notify_all()
        return taken

    def _pop(self, queue: ConsumerQueue, max_pages: int) -> list[Page]:
        """The one step of ``take`` a distribution overrides: remove the
        pages (and keep whatever lineage recovery needs of them)."""
        pages = queue.pages
        taken: list[Page] = []
        while pages and len(taken) < max_pages:
            taken.append(pages.popleft())
        return taken

    def wait(self, buffer_id: int, wake: Callable[[], None]) -> bool:
        """After an empty ``take``: False when the id ended and is drained,
        else ``wake`` runs once at its next page or end."""
        queue = self.consumers[buffer_id]
        if queue.ended and not queue.pages:
            return False
        queue.on_update.add(wake)
        return True

    def _account(self, page: Page) -> None:
        self.rows_out += page.num_rows
        self.bytes_out += page.size_bytes

    # -- failure recovery (Section "Fault model & recovery") ---------------
    def requeue_for_retry(self, old_id: int, new_id: int) -> None:
        """Replace a dead consumer with its respawned task's buffer id."""
        self.retire_consumer(old_id)
        self.add_consumer(new_id)
        for queue in self.consumers.values():
            queue.on_update.notify_all()
        self.not_full.notify_all()


class BroadcastOutputBuffer(TaskOutputBuffer):
    """Every consumer receives every page.  Always caches, so consumers
    added later — DOP increases, respawned tasks — replay the full stream
    on registration (which is all a retry needs)."""

    def __init__(self, kernel: SimKernel, config: BufferConfig, name: str = "out"):
        super().__init__(kernel, config, name)
        self.page_cache: list[Page] = []

    def _open(self, buffer_id: int) -> ConsumerQueue:
        queue = super()._open(buffer_id)
        for page in self.page_cache:
            queue.push(page)
        return queue

    def put(self, page: Page) -> None:
        if self.aborted:
            return
        self._account(page)
        self.page_cache.append(page)
        for queue in self.consumers.values():
            if not queue.ended:  # consumer departed via elastic shutdown
                queue.push(page)

    def _discard_internal(self) -> None:
        self.page_cache.clear()


class SharedOutputBuffer(TaskOutputBuffer):
    """ARBITRARY / GATHER: one page queue shared by the consumers, whose
    own queues carry only their end page."""

    def __init__(
        self, kernel: SimKernel, config: BufferConfig, mode: OutputMode, name: str = "out"
    ):
        super().__init__(kernel, config, name)
        self.mode = mode
        self._shared: deque[Page] = deque()
        #: Failure-recovery lineage: data pages already taken by each
        #: consumer, so a dead consumer's share can be requeued for its
        #: replacement (exactly-once under work sharing).
        self._taken_log: dict[int, list[Page]] = {}

    def _open(self, buffer_id: int) -> ConsumerQueue:
        if self.mode is OutputMode.GATHER and self.consumers:
            raise SchedulingError("gather buffer supports exactly one consumer")
        return super()._open(buffer_id)

    def put(self, page: Page) -> None:
        if self.aborted:
            return
        self._account(page)
        self._shared.append(page)
        for queue in self.consumers.values():
            queue.on_update.notify_all()

    @property
    def is_full(self) -> bool:
        return len(self._shared) >= self.capacity.capacity

    def take(self, buffer_id: int, max_pages: int) -> list[Page]:
        queue = self.consumers.get(buffer_id)
        if queue is not None and queue.end_signal == "shutdown":
            # An elastic shutdown takes effect at once: the shared pages
            # belong to the surviving consumers, and the departed one
            # collects its end page without driving their capacity.
            taken = list(queue.pages)
            queue.pages.clear()
            return taken
        return super().take(buffer_id, max_pages)

    def _pop(self, queue: ConsumerQueue, max_pages: int) -> list[Page]:
        shared = self._shared
        taken: list[Page] = []
        while shared and len(taken) < max_pages:
            taken.append(shared.popleft())
        if taken:
            self._taken_log.setdefault(queue.buffer_id, []).extend(taken)
        # A natural end (task finished) is delivered once the shared queue
        # has been drained.
        if queue.pages and (not taken or not shared):
            taken.extend(queue.pages)
            queue.pages.clear()
        return taken

    def _discard_internal(self) -> None:
        self._shared.clear()
        self._taken_log.clear()

    def requeue_for_retry(self, old_id: int, new_id: int) -> None:
        """Pages the dead consumer already took are requeued at the
        *front* of the shared queue (any consumer may process any page, so
        exactly-once is preserved)."""
        lost = self._taken_log.pop(old_id, [])
        if lost:
            self._shared.extendleft(reversed(lost))
        super().requeue_for_retry(old_id, new_id)


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
        key_positions: Sequence[int],
        cpu: CpuPool,
        cost: CostModel,
        cache_pages: bool = False,
        name: str = "shuffle",
    ):
        super().__init__(kernel, config, name)
        self.key_positions = list(key_positions)
        self.cpu = cpu
        self.cost = cost
        #: The intermediate data cache (Section 4.5) a group switch replays.
        self.cache_enabled = cache_pages
        self.page_cache: list[Page] = []
        #: The active buffer-ID group: partition index -> buffer id.
        self.group: list[int] = []
        self._pending_shuffles = 0
        self._drained = WaiterList()
        #: Failure-recovery lineage: every sub-page delivered to each
        #: buffer id, replayed when that consumer dies and is respawned.
        self._pushed_log: dict[int, list[Page]] = {}
        #: Dead buffer id -> replacement id; consulted at shuffle commit
        #: time so partitioning work in flight across a retry still lands.
        self._redirects: dict[int, int] = {}

    # -- group management (DOP switching, Section 4.5) ----------------------
    def set_group(self, buffer_ids: list[int], replay_cache: bool = False) -> None:
        """Install a buffer-ID group: the first one, or a *new* one (DOP
        switching, Section 4.5).

        Future pages are partitioned across the group.  When
        ``replay_cache`` is set, all cached pages are reshuffled to it
        (hash-table rebuild from the intermediate data cache), and on a
        finished buffer its views end only after that replay has landed.
        A former group's queues are *not* ended here — ``end_group``
        closes them once the new task group is ready (probe-side switch;
        see ``repro.cluster.topology.regroup``).
        """
        self.group = list(buffer_ids)
        for buffer_id in buffer_ids:
            if buffer_id not in self.consumers:
                self._open(buffer_id)
        if replay_cache:
            for page in self.page_cache:
                self._schedule_shuffle(page)
        if self.finished and self._pending_shuffles == 0:
            self._finish_consumers()

    def end_group(self, buffer_ids: list[int], signal: str | None = "shutdown") -> None:
        """Close a (former) buffer-ID group.

        Ends are deferred until in-flight shuffle work has drained, so
        pages partitioned for the old group before the switch are never
        dropped.
        """

        def close() -> None:
            for buffer_id in buffer_ids:
                self.end_consumer(buffer_id, signal)

        self.when_drained(close)

    # -- producer ----------------------------------------------------------
    def put(self, page: Page) -> None:
        if self.aborted:
            return
        self._account(page)
        if self.cache_enabled:
            self.page_cache.append(page)
        self._schedule_shuffle(page)

    def _schedule_shuffle(self, page: Page) -> None:
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
            self._drained.notify_all()
            if self.finished:
                self._finish_consumers()

    def when_drained(self, fn: Callable[[], None]) -> None:
        if self._pending_shuffles == 0:
            fn()
        else:
            self._drained.add(fn)

    def task_finished(self) -> None:
        self.finished = True
        if self._pending_shuffles == 0:
            self._finish_consumers()

    def _finish_consumers(self) -> None:
        for queue in self.consumers.values():
            queue.end()

    def _discard_internal(self) -> None:
        self.page_cache.clear()
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
        queue = self.consumers.get(new_id) or self._open(new_id)
        for page in lost:
            queue.push(page)
        if lost:
            self._pushed_log[new_id] = list(lost)
        self.group = [new_id if g == old_id else g for g in self.group]
        if self.finished and self._pending_shuffles == 0:
            queue.end()


def make_output_buffer(
    kernel: SimKernel,
    config: BufferConfig,
    mode: OutputMode,
    name: str = "out",
    keys: Sequence[int] = (),
    cache_pages: bool = False,
    cpu: CpuPool | None = None,
    cost: CostModel | None = None,
) -> TaskOutputBuffer:
    """The output buffer of one task: the class its distribution names
    (``keys`` / ``cache_pages`` / ``cpu`` / ``cost`` are the shuffle's)."""
    if mode is OutputMode.HASH:
        return ShuffleOutputBuffer(kernel, config, keys, cpu, cost, cache_pages, name)
    if mode is OutputMode.BROADCAST:
        return BroadcastOutputBuffer(kernel, config, name)
    return SharedOutputBuffer(kernel, config, mode, name)
