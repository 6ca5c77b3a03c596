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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class _SplitState:
    split: RemoteSplit
    fetching: bool = False
    waiting: bool = False
    ended: bool = False


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
        self.splits: dict[tuple, _SplitState] = {}
        self.rows_received = 0
        self.bytes_received = 0
        #: Signalled when the finished state may have changed or new pages
        #: arrived; exchange source operators wait here.
        self.on_output = self.buffer.not_empty
        self.buffer.not_full.add(self._resume_all)
        self._no_more_splits = False
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
        state = _SplitState(split)
        self.splits[split.key] = state
        self._try_fetch(state)

    @property
    def finished(self) -> bool:
        return (
            bool(self.splits)
            and all(s.ended for s in self.splits.values())
            and self.buffer.is_empty
        )

    # -- consumer side (exchange source operators) ----------------------
    def poll(self) -> Page | None:
        """Next data page, an end page when finished, or ``None`` to block."""
        page = self.buffer.poll()
        if page is not None:
            return page
        if self.finished:
            return Page.end()
        # A poll on empty may have grown the buffer: resume paused fetches.
        self._resume_all()
        return None

    @property
    def has_output(self) -> bool:
        return not self.buffer.is_empty or self.finished

    def waiters(self) -> WaiterList:
        return self.buffer.not_empty

    # -- fetch machinery ----------------------------------------------------
    def _resume_all(self) -> None:
        # Re-arm the persistent not_full subscription (WaiterList is
        # one-shot) and kick every idle split.
        self.buffer.not_full.add(self._resume_all)
        for state in list(self.splits.values()):
            self._try_fetch(state)

    def _try_fetch(self, state: _SplitState) -> None:
        if self.closed:
            return
        if state.fetching or state.ended:
            return
        if self.buffer.free_slots <= 0:
            return
        upstream_buffer = state.split.upstream.output_buffer
        if not upstream_buffer.has_data(state.split.buffer_id):
            queue = upstream_buffer.consumers.get(state.split.buffer_id)
            if queue is not None and queue.ended and not queue.pages:
                # Ended and fully drained by us earlier.
                return
            if not state.waiting:
                state.waiting = True

                def wake(state=state) -> None:
                    state.waiting = False
                    self._try_fetch(state)

                if queue is not None:
                    queue.on_update.add(wake)
                else:
                    # Our buffer id does not exist yet (e.g. a task group
                    # being wired during DOP switching): wait for it.
                    upstream_buffer.on_consumer_added.add(wake)
            return
        batch = upstream_buffer.take(
            state.split.buffer_id, min(_FETCH_BATCH, self.buffer.free_slots)
        )
        if not batch:
            self._try_fetch(state)  # re-register waiter
            return
        state.fetching = True
        nbytes = sum(p.size_bytes for p in batch)
        # A dead upstream node's spooled output stays readable via durable
        # disaggregated storage — only our own NIC is occupied then.
        upstream_node = state.split.upstream.node
        src_nic = upstream_node.nic if upstream_node.alive else None
        dst_nic = self.node.nic

        def commit(state=state, batch=batch, nbytes=nbytes) -> None:
            self._commit_fetch(state, batch, nbytes)

        transfer(
            self.kernel, src_nic, dst_nic, nbytes, self.cost.network_latency, commit
        )

    def _commit_fetch(self, state: _SplitState, batch: list[Page], nbytes: int) -> None:
        state.fetching = False
        self.bytes_received += nbytes
        for page in batch:
            if page.is_end:
                if state.ended:
                    raise InvariantViolation(f"{self.name}: duplicate end page")
                state.ended = True
                continue
            self.rows_received += page.num_rows
            self.buffer.put(page)
        if state.ended and self.finished:
            # Wake blocked source drivers so they can observe the end.
            self.buffer.not_empty.notify_all()
        if not state.ended:
            self._try_fetch(state)
