"""Sessions and the per-engine WorkloadManager.

``engine.session(tenant, priority, deadline)`` opens a :class:`Session`;
its ``submit()`` enters the engine's query lifecycle as a *session*
query: it is admitted by the admission controller instead of at once,
and the execution serving it is adopted by the cluster-wide resource
arbiter.  The manager keeps a record of every session query in
``records`` — the raw material for the workload report: the
:class:`~repro.handle.QueryHandle` itself while it is queued or running,
a frozen :class:`SubmissionRecord` once it is terminal (DESIGN.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ExecutionError
from ..handle import QueryHandle
from .admission import AdmissionController
from .arbiter import ResourceArbiter
from .policies import ARBITRATION_POLICIES, QUEUE_POLICIES

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryOptions
    from ..engine import AccordionEngine
    from ..handle import QueryResult
    from .autoscaler import Autoscaler


@dataclass(frozen=True)
class SubmissionRecord:
    """A terminal session submission, as the workload report reads it;
    it holds no execution, so the handle alone decides how long the
    query's graph lives."""

    query_id: int | None
    tenant: str
    state: str
    latency: float
    queue_seconds: float | None
    admitted_at: float | None
    finished_at: float
    deadline_at: float | None
    deadline_met: bool | None

    @classmethod
    def of(cls, query: QueryHandle) -> "SubmissionRecord":
        return cls(
            query.id, query.tenant, query.state, query.latency, query.queue_seconds,
            query.admitted_at, query.finished_at, query.deadline_at, query.deadline_met,
        )


class Session:
    """One tenant's submission channel (cheap; open as many as needed)."""

    def __init__(
        self,
        manager: "WorkloadManager",
        tenant: str,
        priority: float = 0.0,
        deadline: float | None = None,
    ):
        self.manager = manager
        self.tenant = tenant
        self.priority = priority
        #: Default per-query deadline, virtual seconds from submission.
        self.deadline = deadline

    def submit(
        self,
        sql: str,
        options: "QueryOptions | None" = None,
        deadline: float | None = None,
        memory_bytes: int | None = None,
    ) -> QueryHandle:
        """Queue a query for admission; returns immediately.

        The handle starts in the ``"queued"`` state (possibly admitted
        synchronously if capacity allows); ``deadline`` overrides the
        session default for this query."""
        engine = self.manager.engine
        return engine._submit(
            QueryHandle(
                engine, sql, options, session=self,
                deadline=deadline if deadline is not None else self.deadline,
                memory_bytes=memory_bytes,
            )
        )

    def execute(
        self,
        sql: str,
        options: "QueryOptions | None" = None,
        max_virtual_seconds: float = 1e7,
    ) -> "QueryResult":
        """Submit through admission and run to completion."""
        return self.submit(sql, options).result(max_virtual_seconds)

    @property
    def queue_depth(self) -> int:
        return len(self.manager.admission.queue)

    def __repr__(self) -> str:
        return f"Session(tenant={self.tenant!r}, priority={self.priority})"


class WorkloadManager:
    """Per-engine workload layer: admission + arbitration + records."""

    def __init__(self, engine: "AccordionEngine"):
        self.engine = engine
        self.kernel = engine.kernel
        self.config = engine.config.workload
        # Both are compared against string literals downstream, where a
        # misspelt policy would silently behave as the default one.
        for name, known in (
            ("queue_policy", QUEUE_POLICIES), ("arbitration", ARBITRATION_POLICIES)
        ):
            if getattr(self.config, name) not in known:
                raise ExecutionError(
                    f"WorkloadConfig.{name}={getattr(self.config, name)!r}: "
                    f"expected one of {known}"
                )
        self.arbiter = ResourceArbiter(self)
        self.admission = AdmissionController(self)
        #: Every session query, in submission order: its handle until it
        #: is terminal, then its record.
        self.records: list[QueryHandle | SubmissionRecord] = []
        #: Queue/deadline-driven fleet sizing (ClusterConfig.autoscale).
        self.autoscaler: "Autoscaler | None" = None
        if engine.config.cluster.autoscale:
            from .autoscaler import Autoscaler

            self.autoscaler = Autoscaler(self)
            engine.metrics.gauge("autoscaler", self.autoscaler.gauges)
        else:
            # Capacity changes (manual joins/drains) still unblock queued
            # admissions even without the autoscaler.
            engine.membership.on_change.append(self.admission._schedule_pump)
        engine.metrics.gauge("workload", self.admission.gauges)
        engine.metrics.gauge("arbiter", self.arbiter.gauges)

    def session(
        self, tenant: str, priority: float = 0.0, deadline: float | None = None
    ) -> Session:
        return Session(self, tenant, priority=priority, deadline=deadline)

    def keep(self, query: QueryHandle) -> None:
        """Append ``query`` to ``records``; its terminal transition puts
        its :class:`SubmissionRecord` in the same slot."""
        slot = len(self.records)
        self.records.append(query)

        def retire(done: QueryHandle) -> None:
            self.records[slot] = SubmissionRecord.of(done)

        query.on_done(retire)
