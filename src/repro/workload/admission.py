"""Admission controller: the admit step of the query lifecycle.

Session submissions join a queue; the controller admits the head — hands
it back to ``AccordionEngine._launch`` — whenever the configured
concurrency caps (``max_concurrent_queries``, and
``max_queries_per_node`` times the schedulable fleet) allow it, or the
sharing layer would serve it without new resources.  Planned cores are
reported, not capped.  Queue
order is FIFO or aged priority (:mod:`repro.workload.policies`); a queue
timeout rejects the submission with a structured
:class:`~repro.errors.QueryRejectedError` instead of holding it forever.
Every decision happens at a deterministic point in virtual time, so a
workload replays identically from (seed, trace).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from ..cluster.scheduler import initial_stage_dop
from ..errors import QueryCancelledError, QueryRejectedError
from .policies import pick_next

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryOptions
    from ..handle import QueryHandle
    from ..plan.physical import PhysicalPlan
    from .session import WorkloadManager


#: Memory charged per query when the session does not declare one.
DEFAULT_QUERY_MEMORY_BYTES = 1 * 1024**3


def planned_cores(plan: "PhysicalPlan", options: "QueryOptions") -> int:
    """Cores a query will occupy at its *initial* DOPs: one per task the
    scheduler will create.  Runtime tuning beyond this goes through the
    resource arbiter, not admission."""
    return sum(initial_stage_dop(f, options) for f in plan.bottom_up())


class AdmissionController:
    def __init__(self, manager: "WorkloadManager"):
        self.manager = manager
        self.engine = manager.engine
        self.kernel = manager.engine.kernel
        self.config = manager.config
        self.queue: list["QueryHandle"] = []
        #: Every admitted, still-running session submission.
        self.running: set["QueryHandle"] = set()
        #: Policy-violation log: must stay empty; every entry is a bug.
        self.violations: list[str] = []
        self.decisions = self.kernel.decisions
        #: Numbers session submissions in arrival order: the FIFO rank,
        #: and the name (``inputs["seq"]``) of a submission's decisions
        #: until routing gives it a query id.
        self.seq = itertools.count(1)
        self.max_queue_depth = 0
        self._pump_scheduled = False

    # -- submission ---------------------------------------------------------
    def enqueue(self, sub: "QueryHandle") -> None:
        """Queue ``sub`` (prepared, planned, possibly pre-granted) and
        admit whatever now fits — possibly ``sub`` itself, synchronously."""
        sub.cores = planned_cores(sub.plan, sub.options)
        if sub.memory_bytes is None:
            sub.memory_bytes = DEFAULT_QUERY_MEMORY_BYTES
        self.manager.keep(sub)
        self.queue.append(sub)
        self.max_queue_depth = max(self.max_queue_depth, len(self.queue))
        if self.config.queue_timeout is not None:
            sub.timeout_event = self.kernel.schedule(
                self.config.queue_timeout, lambda: self._timeout(sub)
            )
        self.decisions.record(
            "admission", "queued", tenant=sub.tenant, seq=sub.seq, cores=sub.cores
        )
        self._pump()
        if self.manager.autoscaler is not None:
            self.manager.autoscaler.ensure_tick()

    def reject_predicted_miss(self, sub: "QueryHandle", miss: float) -> None:
        """SLO rejection before queueing: the runtime estimate + variance
        says this query cannot plausibly meet its deadline.  The
        submission is terminal immediately; the structured error carries
        the prediction so the caller can renegotiate (retry with a looser
        deadline or after warming more history)."""
        prediction = sub.admission_prediction
        self.manager.keep(sub)
        sub._finish(
            "rejected",
            QueryRejectedError(
                f"tenant {sub.tenant!r}: predicted deadline-miss "
                f"probability {miss:.3f} exceeds "
                f"{self.engine.config.prediction.max_miss_probability} "
                f"(predicted runtime {prediction.runtime:.2f}s +- "
                f"{prediction.std:.2f}s vs deadline {sub.deadline:.2f}s)",
                tenant=sub.tenant,
                reason="predicted-miss",
                prediction=prediction,
            ),
        )
        self.decisions.record(
            "admission", "rejected", tenant=sub.tenant, reason="predicted-miss",
            seq=sub.seq,
        )

    # -- queue dynamics -----------------------------------------------------
    def _pump(self) -> None:
        """Admit head-of-line submissions while they fit the limits."""
        self._pump_scheduled = False
        while self.queue:
            head = pick_next(
                self.queue,
                self.config.queue_policy,
                self.config.priority_aging_rate,
                self.kernel.now,
            )
            if not (self._fits(head) or self._needs_no_resources(head)):
                break
            self.queue.remove(head)
            self._admit(head)
        self._check_invariants()

    def _schedule_pump(self) -> None:
        """Re-pump on the next zero-delay event (after a completion)."""
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.kernel.call_soon(self._pump)

    def _billed_running(self) -> int:
        """Physical executions currently admitted.  Folded/cached
        submissions ride along unbilled and never count against caps."""
        return sum(1 for sub in self.running if sub.billed)

    @property
    def admitted_cores(self) -> int:
        return sum(sub.cores for sub in self.running if sub.billed)

    def _needs_no_resources(self, sub: "QueryHandle") -> bool:
        """True when the sharing layer would serve this submission without
        a new physical execution (fold onto a live carrier, or a result
        cache hit) — such submissions are admitted past the caps because
        they consume no new cores or memory."""
        sharing = self.engine.sharing
        return sharing is not None and sharing.decide(sub).route in (
            "folded", "cached",
        )

    def _fits(self, sub: "QueryHandle") -> bool:
        cfg = self.config
        if (
            cfg.max_concurrent_queries is not None
            and self._billed_running() >= cfg.max_concurrent_queries
        ):
            return False
        if cfg.max_queries_per_node is not None:
            # Dynamic cap tracking the live fleet: under autoscaling the
            # concurrency limit grows with joins and shrinks with drains.
            # Enforced at admission only — a scale-down never cancels
            # already-running queries, so a transient excess is legal
            # (and deliberately not an invariant violation).
            nodes = len(self.engine.cluster.schedulable_compute)
            limit = max(1, math.ceil(cfg.max_queries_per_node * nodes))
            if self._billed_running() >= limit:
                return False
        return True

    def _admit(self, sub: "QueryHandle") -> None:
        if sub.timeout_event is not None:
            sub.timeout_event.cancel()
            sub.timeout_event = None
        self.running.add(sub)
        self.decisions.record(
            "admission", "admitted", tenant=sub.tenant, seq=sub.seq,
            queued_seconds=self.kernel.now - sub.submitted_at,
        )
        sub.on_done(self._released)
        self.engine._launch(sub)

    def _released(self, sub: "QueryHandle") -> None:
        self.running.discard(sub)
        if self.queue:
            self._schedule_pump()

    def _timeout(self, sub: "QueryHandle") -> None:
        if sub not in self.queue:
            return
        self.queue.remove(sub)
        queued = self.kernel.now - sub.submitted_at
        sub._finish(
            "rejected",
            QueryRejectedError(
                f"tenant {sub.tenant!r}: queue timeout after "
                f"{queued:.2f} virtual seconds",
                tenant=sub.tenant,
                reason="queue-timeout",
                queued_seconds=queued,
            ),
        )
        self.decisions.record(
            "admission", "rejected", tenant=sub.tenant, reason="queue-timeout",
            seq=sub.seq, queued_seconds=queued,
        )
        self._check_invariants()

    def cancel_queued(self, sub: "QueryHandle", reason: str) -> None:
        self.queue.remove(sub)
        if sub.timeout_event is not None:
            sub.timeout_event.cancel()
            sub.timeout_event = None
        sub._finish(
            "cancelled",
            QueryCancelledError(f"cancelled while queued: {reason}", reason=reason),
        )
        self.decisions.record(
            "admission", "cancelled_queued", tenant=sub.tenant, reason=reason,
            seq=sub.seq,
        )

    # -- policy invariants --------------------------------------------------
    def _check_invariants(self) -> None:
        cfg = self.config
        now = self.kernel.now
        billed = self._billed_running()
        if (
            cfg.max_concurrent_queries is not None
            and billed > cfg.max_concurrent_queries
        ):
            self.violations.append(
                f"t={now:.4f}: {billed} running > "
                f"max_concurrent_queries={cfg.max_concurrent_queries}"
            )

    # -- observability ------------------------------------------------------
    def gauges(self, since: int = 0) -> dict:
        """Live queue state, plus this controller's decisions counted
        from log mark ``since`` (``workload.*`` in ``engine.metrics``,
        ``WorkloadReport.admission``)."""
        counts = self.decisions.counts(since)
        rejected = self.decisions.of(since, kind="admission", outcome="rejected")
        timeouts = sum(d.reason == "queue-timeout" for d in rejected)
        return {
            "queue_depth": len(self.queue),
            "max_queue_depth": self.max_queue_depth,
            "running": len(self.running),
            "running_billed": self._billed_running(),
            "admitted_cores": self.admitted_cores,
            "submitted": counts["admission", "queued"] + len(rejected) - timeouts,
            "admitted": counts["admission", "admitted"],
            "rejected": len(rejected),
            "timeouts": timeouts,
            "cancelled_queued": counts["admission", "cancelled_queued"],
            "violations": len(self.violations),
        }
