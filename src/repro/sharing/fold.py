"""Shared executions: fold groups and the consumers riding them.

A :class:`FoldGroup` owns one *carrier* :class:`QueryExecution` (the
physical plan that actually runs) and a list of :class:`SharedConsumer`
records, one per submitted query — including the query that created the
group.  A consumer holds only what is sharing-specific about its
:class:`~repro.handle.QueryHandle` (group, residual, pages saved); the
query's state, callbacks and answer live on the handle, which derives
its result from the carrier's output page through the consumer's
:class:`~repro.sharing.residual.Residual`.

Lifecycle rules (the tentpole's cancellation semantics):

- cancelling one consumer *detaches* it; the carrier keeps running for
  the remaining consumers — even when the detached consumer is the one
  that created the group;
- only when the *last* consumer detaches is the carrier execution
  cancelled (clean §4.4 end-signal teardown);
- carrier completion fans out: each live consumer applies its residual
  and finishes at the same virtual instant; carrier failure/cancellation
  propagates as that consumer's own structured error.

A group created under a fold window (``SharingConfig.fold_window > 0``)
defers carrier dispatch by that many virtual seconds so closely-spaced
identical queries can pile on before any physical work starts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import QueryFailedError
from .residual import Residual, apply_residual

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution
    from ..handle import QueryHandle
    from .manager import SharingManager


class SharedConsumer:
    """The sharing-specific side of one query served by the sharing
    layer: a carrier (created the group), a folded query (grafted onto an
    existing group), or a cached one (answered from the result cache,
    never in a group)."""

    def __init__(
        self,
        submission: "QueryHandle",
        cache_key: tuple,
        scan_pages: int,
        residual: Residual | None = None,
    ):
        self.submission = submission
        submission.shared = self
        self.cache_key = cache_key
        self.residual = residual if residual is not None else Residual()
        self.group: "FoldGroup | None" = None  # set by FoldGroup.add
        #: Scan pages a future cache hit on this answer would save.
        self.scan_pages = scan_pages
        #: Base-table pages this consumer did *not* re-read (fold/cache).
        self.pages_saved = (
            scan_pages if submission.route in ("folded", "cached") else 0
        )

    def describe(self) -> str:
        sub = self.submission
        via = (
            f" via Q{sub.execution.id}" if sub.execution is not None
            else " (awaiting dispatch)" if sub.route != "cached" else ""
        )
        return (
            f"query {sub.id}: {sub.state} "
            f"[{sub.route}{via}, residual: {self.residual.describe()}]"
        )


class FoldGroup:
    """One shared physical execution and the consumers riding it."""

    def __init__(
        self,
        manager: "SharingManager",
        key: tuple,
        normalized,
        lead: "QueryHandle",
    ):
        self.manager = manager
        self.kernel = manager.kernel
        self.key = key
        self.normalized = normalized
        #: The query whose plan the carrier runs.  Kept on the group:
        #: residuals of later grafts reference *this* plan's output, which
        #: stays valid even if the lead detaches before dispatch.
        self.lead = lead
        self.consumers: list[SharedConsumer] = []
        self.carrier: "QueryExecution | None" = None
        self.done = False
        self._dispatch_event = None

    @property
    def active_consumers(self) -> list[SharedConsumer]:
        return [c for c in self.consumers if not c.submission.finished]

    @property
    def accepts(self) -> bool:
        """Whether new consumers may still graft onto this group."""
        return not self.done and (
            self.carrier is None or not self.carrier.finished
        )

    def add(self, consumer: SharedConsumer) -> None:
        consumer.group = self
        self.consumers.append(consumer)

    def schedule_dispatch(self, delay: float) -> None:
        if delay > 0:
            self._dispatch_event = self.kernel.schedule(delay, self.dispatch)
        else:
            self.dispatch()

    def dispatch(self) -> None:
        """Start the carrier's physical execution (the lifecycle's start
        and record steps, for every consumer still live)."""
        self._dispatch_event = None
        if self.done or self.carrier is not None:
            return
        live = self.active_consumers
        if not live:
            self.manager._group_done(self)
            return
        engine = self.manager.engine
        self.carrier = execution = engine._start(self.lead)
        for consumer in live:
            consumer.submission.execution = execution
            engine._record(consumer.submission)
        execution.on_done(self._carrier_done)

    def detach(self, consumer: SharedConsumer, reason: str) -> None:
        consumer.submission.cancelled_by(reason)
        self.manager._on_detach(self, consumer)
        if self.active_consumers:
            return
        # Last consumer gone: tear the shared execution down cleanly.
        if self.carrier is not None and not self.carrier.finished:
            self.carrier.cancel("all shared consumers cancelled")
        elif self.carrier is None:
            if self._dispatch_event is not None:
                self._dispatch_event.cancel()
                self._dispatch_event = None
            self.manager._group_done(self)

    def _carrier_done(self, execution: "QueryExecution") -> None:
        answer = execution.result() if execution.succeeded else None
        for consumer in self.active_consumers:
            sub = consumer.submission
            if execution.succeeded:
                try:
                    page = apply_residual(answer, consumer.residual)
                except Exception as exc:  # residual bug: fail, don't hang
                    sub.fail(exc)
                else:
                    sub.complete(page)
            elif execution.cancelled:
                sub.cancelled_by(
                    f"shared execution Q{execution.id} cancelled: "
                    f"{execution.error.reason}"
                )
            else:
                sub.fail(
                    QueryFailedError(
                        f"shared execution Q{execution.id} failed: "
                        f"{execution.error}",
                        query_id=sub.id,
                        cause=execution.error,
                    )
                )
        self.manager._group_done(self)
