"""ResourceArbiter: cluster-wide owner of the core inventory.

The per-query auto-tuner (Section 5) assumes the cluster is its own; with
many tenants that assumption breaks.  Every tuning request that passes
the tuner's check therefore becomes a *bid* — (query, stage, requested
DOP, predicted benefit from the what-if estimate) — which the arbiter
grants, trims to the cores actually available, or defers
(:class:`~repro.errors.TuningRejected` with reason ``arbiter-deferred``).

Under the ``"deadline"`` policy the arbiter also runs a periodic
rebalance pass: queries whose what-if ``T_remain`` exceeds their
remaining slack get cores *granted*, and if the cluster is full the
arbiter *revokes* cores from the least-important over-baseline query —
the revocation is a Section 4.4 end-signal task removal on the victim,
whose stage is then pinned against immediate re-tuning.

Determinism: decisions depend only on virtual time, adopted entries
(iterated in query-id order), and counters — never on wall clock or
unseeded randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..elastic.tuning import TuningKind, TuningRequest
from ..errors import TuningRejected
from .policies import fair_share_budget, grantable_units

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution
    from ..handle import QueryHandle
    from .session import WorkloadManager

#: Tenant label for queries submitted outside any session.
ANONYMOUS = "(anonymous)"
#: Virtual seconds between rebalance passes.
PERIOD = 1.0
#: Virtual seconds a revoked stage stays pinned against re-tuning.
REVOCATION_PIN_SECONDS = 5.0


@dataclass
class ArbiterEntry:
    """Arbiter-side metadata for one adopted (session) execution."""

    execution: "QueryExecution"
    #: The session queries this execution serves, the one it was adopted
    #: for first; more than one only when it is shared (DESIGN.md §14).
    riders: list["QueryHandle"]
    #: Stage id -> stage DOP at adoption; anything above this is
    #: revocable ("extra") under rebalancing.
    baseline: dict[int, int] = field(default_factory=dict)
    revoked: int = 0
    #: Memory grant at adoption (None -> engine-config budget).
    memory_bytes: int | None = None

    @property
    def tenant(self) -> str:
        return self.riders[0].tenant

    def _live(self) -> list["QueryHandle"]:
        return [q for q in self.riders if not q.finished] or self.riders[:1]

    @property
    def priority(self) -> float:
        """The highest priority among the live riders: a shared run is
        arbitrated as its most important rider demands."""
        return max(q.priority for q in self._live())

    @property
    def deadline_at(self) -> float | None:
        """The tightest deadline among the live riders."""
        return min(
            (q.deadline_at for q in self._live() if q.deadline_at is not None),
            default=None,
        )


class ResourceArbiter:
    def __init__(self, manager: "WorkloadManager"):
        self.manager = manager
        self.engine = manager.engine
        self.kernel = manager.engine.kernel
        self.config = manager.config
        self.cluster = manager.engine.cluster
        self.entries: dict[int, ArbiterEntry] = {}
        self.decisions = self.kernel.decisions
        #: Re-entrancy flag: the arbiter's own grant/revoke applications
        #: must not be re-arbitrated.
        self._bypass = False
        self._tick_running = False

    @property
    def capacity(self) -> int:
        """Core inventory of the *schedulable* fleet — tracks membership
        (a draining or departed node's cores stop being grantable; a
        joined node's cores become grantable immediately)."""
        return self.cluster.schedulable_cores()

    # -- adoption -----------------------------------------------------------
    def adopt(self, query: "QueryHandle") -> None:
        """Account session query ``query`` against the execution serving
        it.  The execution gets its entry under the first session query
        it serves; every later query riding the same (shared) execution
        joins that entry's riders, whose live members give the effective
        priority and deadline, so a detach drops only its own claim."""
        execution = query.execution
        entry = self.entries.get(execution.id)
        if entry is None:
            entry = self.entries[execution.id] = ArbiterEntry(
                execution,
                riders=[],
                baseline={
                    sid: stage.stage_dop for sid, stage in execution.stages.items()
                },
                memory_bytes=query.memory_bytes,
            )
            if query.memory_bytes is not None:
                # The grant is the budget: operators that outgrow it spill.
                execution.memory.set_budget(query.memory_bytes)
            execution.on_done(lambda done: self.entries.pop(done.id, None))
        entry.riders.append(query)
        if self.config.arbitration == "deadline":
            self._ensure_tick()

    # -- usage accounting (dynamic, from live structures) -------------------
    def query_cores(self, execution: "QueryExecution") -> int:
        """Cores a query currently occupies: one per active driver slot."""
        if execution.finished:
            return 0
        total = 0
        for sid in sorted(execution.stages):
            stage = execution.stages[sid]
            if stage.finished:
                continue
            for task in stage.active_tasks:
                total += max(1, task.driver_count())
        return total

    def cluster_usage(self) -> int:
        return sum(
            self.query_cores(q)
            for q in self.engine.coordinator.running.values()
        )

    def tenant_of(self, query_id: int) -> str:
        entry = self.entries.get(query_id)
        return entry.tenant if entry is not None else ANONYMOUS

    def tenant_usage(self, tenant: str) -> int:
        return sum(
            self.query_cores(q)
            for qid, q in self.engine.coordinator.running.items()
            if self.tenant_of(qid) == tenant
        )

    def active_tenants(self) -> list[str]:
        return sorted(
            {self.tenant_of(qid) for qid in self.engine.coordinator.running}
        )

    # -- bidding ------------------------------------------------------------
    def arbitrate(
        self, query: "QueryExecution", request: TuningRequest, sampler
    ) -> TuningRequest:
        """Grant, trim, or defer one filtered tuning request.

        Returns the (possibly trimmed) request to apply; raises
        :class:`TuningRejected` (reason ``arbiter-deferred``) when no
        cores can be granted now."""
        if self._bypass:
            return request
        stage = query.stage(request.stage)
        if request.kind is TuningKind.TASK_DOP:
            current = stage.task_dop
            per_unit = max(1, len(stage.active_tasks))
        else:
            current = stage.stage_dop
            per_unit = max(1, stage.task_dop)
        delta_units = request.target - current
        tenant = self.tenant_of(query.id)
        free, headroom, prediction = 0, None, None
        if delta_units <= 0:
            # Releases always pass; the freed cores show up in usage.
            outcome, granted = "release", request.target
        else:
            free = self.capacity - self.cluster_usage()
            if self.config.arbitration == "fair_share":
                budget = fair_share_budget(
                    self.capacity, len(self.active_tenants())
                )
                headroom = budget - self.tenant_usage(tenant)
            granted = current + grantable_units(delta_units, per_unit, free, headroom)
            outcome = (
                "defer" if granted == current
                else "grant" if granted == request.target
                else "trim"
            )
            if granted > current and request.kind is not TuningKind.TASK_DOP:
                prediction = sampler.estimate(request.stage, granted)
        self.decisions.record(
            "bid", outcome, query_id=query.id, stage=request.stage, tenant=tenant,
            request=request.kind.value, current=current, requested=request.target,
            granted=granted, free_cores=max(0, free),
            predicted_seconds=prediction and prediction.t_predicted,
        )
        if outcome == "defer":
            raise TuningRejected(
                f"arbiter deferred: {delta_units * per_unit} cores requested, "
                f"{max(0, free)} free"
                + (f", tenant headroom {headroom}" if headroom is not None else ""),
                reason="arbiter-deferred",
            )
        if outcome == "trim":
            return TuningRequest(request.stage, request.kind, granted)
        return request

    def resize_memory(self, query_id: int, memory_bytes: int | None) -> None:
        """Runtime memory re-grant — the budget's second elastic knob.

        A trimmed grant makes the query's operators spill on their next
        growth; an enlarged one stops further spilling (state already on
        disk stays there and is merged partition-at-a-time — correctness
        over un-spilling).  ``None`` lifts the budget entirely.
        """
        entry = self.entries.get(query_id)
        if entry is None or entry.execution.finished:
            raise TuningRejected(
                f"resize_memory: query {query_id} is not registered or "
                f"already finished",
                reason="filtered",
            )
        memory = entry.execution.memory
        old = memory.budget_bytes
        memory.set_budget(memory_bytes)
        shrinking = (
            memory_bytes is not None and (old is None or memory_bytes < old)
        )
        self.decisions.record(
            "memory", "trim" if shrinking else "grant", query_id=query_id,
            tenant=entry.tenant, current=old, granted=memory_bytes,
            free_cores=max(0, self.capacity - self.cluster_usage()),
        )
        entry.memory_bytes = memory_bytes

    # -- deadline-aware rebalancing -----------------------------------------
    def _ensure_tick(self) -> None:
        if not self._tick_running:
            self._tick_running = True
            self.kernel.schedule(PERIOD, self._tick)

    def _tick(self) -> None:
        live = [e for e in self._sorted_entries() if not e.execution.finished]
        if not live:
            # Self-terminate so drained workloads do not keep the event
            # loop alive; adoption restarts the tick.
            self._tick_running = False
            return
        self._rebalance(live)
        self.kernel.schedule(PERIOD, self._tick)

    def _sorted_entries(self) -> list[ArbiterEntry]:
        return [self.entries[qid] for qid in sorted(self.entries)]

    def _rebalance(self, live: list[ArbiterEntry]) -> None:
        for entry in live:
            if entry.deadline_at is None:
                continue
            elastic = entry.execution.elastic
            if elastic is None:
                continue
            plan = self._endangered_plan(entry, elastic)
            if plan is None:
                continue
            stage_id, current, target = plan
            per_unit = max(1, entry.execution.stage(stage_id).task_dop)
            need = (target - current) * per_unit
            free = self.capacity - self.cluster_usage()
            if free < need:
                self._revoke(need - free, exempt=entry.execution.id)
                free = self.capacity - self.cluster_usage()
            granted_units = grantable_units(target - current, per_unit, free, None)
            if granted_units <= 0:
                continue
            self._apply_grant(entry, elastic, stage_id, current + granted_units)

    def _endangered_plan(self, entry, elastic):
        """Returns (stage, current_dop, desired_dop) when the query's
        predicted remaining time exceeds its remaining slack."""
        query = entry.execution
        slack = entry.deadline_at - self.kernel.now
        for unit in elastic.units():
            stage = query.stages.get(unit.knob_stage)
            if stage is None or stage.finished:
                continue
            t_remain = elastic.remaining_time(unit.knob_stage)
            if t_remain is None:
                continue
            if slack <= 0:
                # Deadline already blown: push as hard as the tuner allows.
                ratio = 2.0
            else:
                ratio = t_remain / slack
                if ratio <= 1.05:  # on track (5% guard band)
                    continue
            current = max(1, stage.stage_dop)
            desired = min(
                elastic.tuner.max_stage_dop, math.ceil(current * ratio)
            )
            if desired > current:
                return (unit.knob_stage, current, desired)
        return None

    def _revoke(self, cores_needed: int, exempt: int) -> None:
        """Claw back up to ``cores_needed`` cores from over-baseline
        queries (lowest priority first, most-inflated first), via
        Section 4.4 end-signal task removal."""
        victims = []
        for qid in sorted(self.entries):
            entry = self.entries[qid]
            if qid == exempt or entry.execution.finished:
                continue
            if entry.deadline_at is not None and qid != exempt:
                endangered = False
                elastic = entry.execution.elastic
                if elastic is not None:
                    endangered = self._endangered_plan(entry, elastic) is not None
                if endangered:
                    continue
            for sid in sorted(entry.execution.stages):
                stage = entry.execution.stages[sid]
                base = entry.baseline.get(sid, 1)
                if not stage.finished and stage.stage_dop > base:
                    extra = (stage.stage_dop - base) * max(1, stage.task_dop)
                    victims.append((entry.priority, -extra, qid, sid, base))
        victims.sort()
        reclaimed = 0
        for _prio, _neg_extra, qid, sid, base in victims:
            if reclaimed >= cores_needed:
                break
            entry = self.entries[qid]
            elastic = entry.execution.elastic
            if elastic is None:
                continue
            if elastic.tuner.pins.get(sid, 0.0) > self.kernel.now:
                # Already revoked within the pin window; the end-signal
                # removal is still draining, so the stage DOP has not
                # caught up yet — do not double-revoke.
                continue
            stage = entry.execution.stages[sid]
            take_units = min(
                stage.stage_dop - base,
                max(1, math.ceil((cores_needed - reclaimed)
                                 / max(1, stage.task_dop))),
            )
            if not self._direct(elastic.rp, sid, stage.stage_dop - take_units):
                continue
            cores = take_units * max(1, stage.task_dop)
            reclaimed += cores
            entry.revoked += take_units
            elastic.tuner.pin(
                sid, self.kernel.now + REVOCATION_PIN_SECONDS
            )
            self.decisions.record(
                "revoke", "applied", query_id=qid, stage=sid, tenant=entry.tenant,
                units=take_units, cores=cores, needed=cores_needed, for_query=exempt,
            )

    def _apply_grant(self, entry, elastic, stage_id: int, target: int) -> None:
        if self._direct(elastic.ap, stage_id, target):
            self.decisions.record(
                "deadline_grant", "applied", query_id=entry.execution.id,
                stage=stage_id, tenant=entry.tenant, target=target,
                deadline_at=entry.deadline_at,
            )

    def _direct(self, tune, stage_id: int, target: int) -> bool:
        """Apply the arbiter's own AP/RP without bidding against itself."""
        self._bypass = True
        try:
            tune(stage_id, target)
        except TuningRejected:
            return False
        finally:
            self._bypass = False
        return True

    # -- observability ------------------------------------------------------
    def gauges(self, since: int = 0) -> dict:
        """Live inventory and memory sums, plus this arbiter's decisions
        counted from log mark ``since`` (``arbiter.*`` in
        ``engine.metrics``, ``WorkloadReport.arbiter``)."""
        counts = self.decisions.counts(since)
        live = [e for e in self._sorted_entries() if not e.execution.finished]
        return {
            "capacity_cores": self.capacity,
            "usage_cores": self.cluster_usage(),
            "grants": counts["bid", "grant"] + counts["memory", "grant"]
            + counts["deadline_grant", "applied"],
            "trims": counts["bid", "trim"] + counts["memory", "trim"],
            "deferrals": counts["bid", "defer"],
            "revocations": counts["revoke", "applied"],
            "memory_granted_bytes": sum(
                e.memory_bytes for e in live if e.memory_bytes is not None
            ),
            "memory_tracked_bytes": sum(
                e.execution.memory.total_bytes for e in live
            ),
            "memory_spilled_bytes": sum(
                e.execution.memory.spilled_bytes for e in live
            ),
        }
