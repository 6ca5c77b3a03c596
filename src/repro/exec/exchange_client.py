"""Exchange client: fetches pages from upstream task output buffers.

One client exists per (task, remote source); its receive buffer is a
runtime elastic buffer (Section 4.2.2) whose turn-up counter feeds the
bottleneck localizer (Section 5.1).  The client maintains the task's
global remote split set: splits are added when upstream tasks appear
(stage DOP increase) and retired when an end page arrives — either the
natural completion of the upstream task or an elastic shutdown signal.
The client is *finished* once every known upstream ended and the receive
buffer drained, at which point exchange source operators observe end
pages and the relay game begins.

Of an upstream output buffer the client knows ``take(buffer_id, n)`` and,
when that returns nothing, ``wait(buffer_id, wake)`` — the hand-off
contract stated in :mod:`repro.buffers.output` — and nothing else.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from ..buffers import ElasticPageBuffer
from ..buffers.elastic import WaiterList
from ..config import BufferConfig, CostModel
from ..errors import InvariantViolation
from ..pages import Page
from ..sim import SimKernel, transfer
from .splits import RemoteSplit

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node

#: Max pages moved per fetch round-trip.
_FETCH_BATCH = 8


class _SplitState:
    """One upstream split: idle, or exactly one of fetching / waiting /
    ended.  At most one fetch is in flight per split, so its batch parks
    here and ``wake`` / ``commit`` are bound once, not per fetch."""

    __slots__ = ("split", "fetching", "waiting", "ended", "batch", "nbytes",
                 "wake", "commit")

    def __init__(self, client: "ExchangeClient", split: RemoteSplit):
        self.split = split
        self.fetching = False
        #: ``wake`` is registered upstream.  Invariant: a waiting split's
        #: upstream has nothing to take, because whatever gives a consumer
        #: a page or an end runs its waiters.
        self.waiting = False
        self.ended = False
        self.batch: list[Page] | None = None
        self.nbytes = 0
        self.wake = partial(client._wake, self)
        self.commit = partial(client._commit_fetch, self)


class ExchangeClient:
    def __init__(
        self,
        kernel: SimKernel,
        buffer_config: BufferConfig,
        cost: CostModel,
        node: "Node",
        name: str = "exchange",
    ):
        self.kernel = kernel
        self.cost = cost
        self.node = node
        self.name = name
        self.buffer = ElasticPageBuffer(kernel, buffer_config, name=f"{name}.recv")
        #: Insertion-ordered: the order decides who gets scarce receive slots.
        self.splits: dict[tuple, _SplitState] = {}
        self._open_splits = 0
        self.rows_received = 0
        self.bytes_received = 0
        # The one space subscription: ``_on_space`` alone re-arms it, so
        # ``not_full`` never holds more than one entry of this client.
        self._space_waiter = self._on_space
        self.buffer.not_full.add(self._space_waiter)
        #: Set when the owning task crashes: a dead client must never take
        #: pages from upstream buffers again (they belong to the
        #: replacement task after requeue).
        self.closed = False

    def close(self) -> None:
        self.closed = True

    # -- split set management (repro.cluster.topology) ----------------------
    def add_split(self, split: RemoteSplit) -> None:
        if split.key in self.splits:
            return
        state = _SplitState(self, split)
        self.splits[split.key] = state
        self._open_splits += 1
        self._try_fetch(state)

    @property
    def finished(self) -> bool:
        return bool(self.splits) and not self._open_splits and not self.buffer.pages

    @property
    def fetching(self) -> bool:
        """Whether a fetch is in flight (never, once sealed: the keys
        left then map to no state)."""
        return any(
            state is not None and state.fetching for state in self.splits.values()
        )

    #: Called once, when the last fetch in flight has landed (retirement
    #: waits on it).
    on_idle = None

    def seal(self) -> None:
        """Retirement: drop the received pages, the split states and the
        waiters.  The split keys stay, so ``finished`` answers as before;
        a client with unread pages (``finished`` False) keeps no key."""
        self.splits = {} if self.buffer.pages else dict.fromkeys(self.splits)
        self.buffer.pages.clear()
        self.buffer.not_full = self.buffer.not_empty = WaiterList()

    # -- consumer side (exchange source operators) ----------------------
    def poll(self) -> Page | None:
        """Next data page, an end page when finished, or ``None`` to block.

        A poll that frees or grows the receive buffer resumes paused
        fetches through the space subscription."""
        page = self.buffer.poll()
        if page is None and self.finished:
            return Page.end()
        return page

    def waiters(self) -> WaiterList:
        return self.buffer.not_empty

    # -- fetch machinery ----------------------------------------------------
    def _on_space(self) -> None:
        self.buffer.not_full.add(self._space_waiter)  # WaiterList is one-shot
        self._resume_all()

    def _resume_all(self) -> None:
        """Kick the idle splits, in insertion order.  (Slots cannot run
        out on the way: a fetch occupies them when it lands, not now.)"""
        buffer = self.buffer
        if len(buffer.pages) >= buffer.capacity:
            return
        for state in tuple(self.splits.values()):
            if not (state.fetching or state.waiting or state.ended):
                self._try_fetch(state)

    def _wake(self, state: _SplitState) -> None:
        state.waiting = False
        self._try_fetch(state)

    def _try_fetch(self, state: _SplitState) -> None:
        if self.closed:
            return
        if state.fetching or state.ended:
            return
        buffer = self.buffer
        free_slots = buffer.capacity - len(buffer.pages)
        if free_slots <= 0:
            return
        split = state.split
        upstream_buffer = split.upstream.output_buffer
        batch = upstream_buffer.take(split.buffer_id, min(_FETCH_BATCH, free_slots))
        if not batch:
            # (A poll made from inside ``_commit_fetch`` can get here first
            # and leave the split waiting already: one registration.)
            if not state.waiting:
                state.waiting = upstream_buffer.wait(split.buffer_id, state.wake)
            return
        state.fetching = True
        state.batch = batch
        state.nbytes = nbytes = sum(p.size_bytes for p in batch)
        # A dead upstream node's spooled output stays readable via durable
        # disaggregated storage — only our own NIC is occupied then.
        upstream_node = split.upstream.node
        src_nic = upstream_node.nic if upstream_node.alive else None
        transfer(
            self.kernel, src_nic, self.node.nic, nbytes,
            self.cost.network_latency, state.commit,
        )

    def _commit_fetch(self, state: _SplitState) -> None:
        batch, state.batch = state.batch, None
        state.fetching = False
        self.bytes_received += state.nbytes
        for page in batch:
            if page.is_end:
                if state.ended:
                    raise InvariantViolation(f"{self.name}: duplicate end page")
                state.ended = True
                self._open_splits -= 1
                continue
            self.rows_received += page.num_rows
            self.buffer.put(page)
        if state.ended:
            if self.finished:
                # Wake blocked source drivers so they can observe the end.
                self.buffer.not_empty.notify_all()
        else:
            self._try_fetch(state)
        if self.on_idle is not None and not self.fetching:
            on_idle, self.on_idle = self.on_idle, None
            on_idle()
