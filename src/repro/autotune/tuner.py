"""The DOP auto-tuner (paper Sections 5.2 and 5.4, Figure 19).

Every request passes one check step — the paper's request filter — then,
on a multi-tenant engine, the resource arbiter's bid, then
:func:`~repro.elastic.apply_tuning`.  The check blocks requests that would
waste resources:

* requests against finished queries or stages,
* no-op requests (already at the target DOP) and requests against stages
  whose parallelism is pinned (final aggregation) or, after the arbiter
  revoked cores from them, temporarily pinned against scale-up,
* join-stage requests whose estimated remaining time is smaller than the
  hash-table reconstruction time,
* DOP switching while the active group's hash tables are still building.

Three request types reach it:

* **direct DOP tuning** — a manual adjustment;
* **one-time auto-tuning** — predicts the stage's remaining time at a
  list of candidate DOPs and applies the smallest one meeting the
  latency constraint;
* **DOP monitor** — periodically tracks each tuning unit's scan progress
  and incrementally adjusts the knob stages to meet per-scan deadlines
  while minimizing resource usage (scaling *down* when ahead of schedule,
  the RP markers of Figure 30).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cluster.scheduler import Scheduler
from ..elastic import TuningKind, TuningRequest, TuningResult, apply_tuning
from ..errors import TuningRejected
from ..obs.throughput import Sampler

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution
    from ..sim.kernel import Event

#: Monitor hysteresis: scale up above this required/current rate ratio...
SCALE_UP_RATIO = 1.15
#: ...and down below this one.
SCALE_DOWN_RATIO = 0.70


@dataclass(frozen=True)
class TuningUnit:
    """One knob of the DOP tuning panel: an adjustable stage plus the
    table-scan stage acting as its progress indicator."""

    knob_stage: int
    indicator_stage: int


def tuning_units(query: "QueryExecution") -> list[TuningUnit]:
    """Decompose the stage tree into tuning units (the execution DAG shown
    on the DOP tuning panel)."""
    units = []
    for stage_id in sorted(query.stages):
        stage = query.stages[stage_id]
        if stage.fragment.dop_fixed or stage.fragment.is_source:
            continue
        indicator = query.plan.probe_scan(stage_id)
        if indicator is not None:
            units.append(TuningUnit(knob_stage=stage_id, indicator_stage=indicator))
    return units


class DopAutoTuner:
    def __init__(
        self,
        query: "QueryExecution",
        collector: Sampler,
        scheduler: Scheduler,
        max_stage_dop: int = 32,
        arbiter=None,
    ):
        self.query = query
        self.kernel = query.kernel
        self.collector = collector
        self.scheduler = scheduler
        self.max_stage_dop = max_stage_dop
        #: Cluster-wide :class:`~repro.workload.ResourceArbiter`; when set,
        #: every request that passes the check becomes a *bid* the arbiter
        #: may grant, trim, or defer before it is applied.
        self.arbiter = arbiter
        #: Stage id -> virtual time until which scale-ups are pinned.  Set
        #: by the resource arbiter after revoking cores from a stage so
        #: the victim's own monitor does not immediately re-grab them.
        self.pins: dict[int, float] = {}
        #: Monitor state: indicator scan stage -> absolute virtual deadline.
        self.constraints: dict[int, float] = {}
        self.applied: list[TuningResult] = []
        #: The monitor's one pending tick (None while it is not running).
        self._tick: "Event | None" = None
        self._period = 0.0

    # ------------------------------------------------------------------
    # 1. direct tuning
    # ------------------------------------------------------------------
    def direct(self, request: TuningRequest) -> TuningResult:
        self.check(request)
        if self.arbiter is not None:
            request = self.arbiter.arbitrate(self.query, request, self.collector)
        result = apply_tuning(self.scheduler, self.query, request)
        self.applied.append(result)
        return result

    def pin(self, stage_id: int, until: float) -> None:
        """Block scale-up requests against ``stage_id`` until ``until``."""
        self.pins[stage_id] = max(self.pins.get(stage_id, 0.0), until)

    def check(self, request: TuningRequest) -> None:
        """Raises :class:`TuningRejected`, recorded as a ``rejected``
        decision, if the request should be blocked."""
        try:
            self._check(request)
        except TuningRejected as exc:
            self.kernel.decisions.record(
                "rejected", exc.reason, query_id=self.query.id, stage=request.stage,
                reason=str(exc), request=request.kind.value, target=request.target,
            )
            raise

    def _check(self, request: TuningRequest) -> None:
        query = self.query
        if query.finished:
            raise TuningRejected("query already finished", reason="finished")
        if request.stage not in query.stages:
            raise TuningRejected(f"no stage {request.stage}", reason="unknown-stage")
        stage = query.stage(request.stage)
        if stage.finished:
            raise TuningRejected(
                f"stage {stage.id} already finished", reason="finished"
            )
        if request.target < 1:
            raise TuningRejected("target DOP must be >= 1", reason="invalid")
        if stage.fragment.dop_fixed and request.target != 1:
            raise TuningRejected(
                f"stage {stage.id} parallelism is fixed at 1 (final aggregation)",
                reason="fixed",
            )
        if request.kind is TuningKind.TASK_DOP:
            if request.target == stage.task_dop:
                raise TuningRejected("already at target task DOP", reason="noop")
            return
        if request.target == stage.stage_dop:
            raise TuningRejected("already at target stage DOP", reason="noop")
        if request.target < stage.stage_dop:
            return
        pin_until = self.pins.get(request.stage)
        if pin_until is not None and self.kernel.now < pin_until:
            raise TuningRejected(
                f"stage {stage.id} pinned by the resource arbiter until "
                f"t={pin_until:.2f} (cores were revoked)",
                reason="pinned",
            )
        if not stage.has_join():
            return
        if stage.is_partitioned_join and not all(
            b.ready for t in stage.active_group for b in t.bridges
        ):
            raise TuningRejected(
                "hash tables still building; DOP switch deferred", reason="building"
            )
        t_remain = self.collector.remaining_time(stage.id)
        t_build = stage.max_build_seconds()
        if t_remain is not None and t_build > 0 and t_remain < t_build:
            raise TuningRejected(
                f"remaining time {t_remain:.2f}s < hash rebuild time "
                f"{t_build:.2f}s — tuning would waste resources",
                reason="remaining-lt-build",
            )

    # ------------------------------------------------------------------
    # 2. one-time auto tuning
    # ------------------------------------------------------------------
    def tune_once(self, stage_id: int, latency_constraint: float) -> TuningResult | None:
        """Pick the cheapest DOP predicted to finish the stage within
        ``latency_constraint`` seconds and apply it."""
        ceiling = max(2 * self.query.stage(stage_id).stage_dop, 16)
        candidates = sorted({1, 2, 3, 4, 6, 8, 12, 16, ceiling})
        predictions = [self.collector.estimate(stage_id, dop) for dop in candidates]
        predictions = [p for p in predictions if p is not None]
        if not predictions:
            return None
        meeting = [p for p in predictions if p.t_predicted <= latency_constraint]
        if meeting:
            choice = min(meeting, key=lambda p: p.target_dop)
        else:  # nothing meets the constraint: use the fastest configuration
            choice = min(predictions, key=lambda p: p.t_predicted)
        request = TuningRequest(stage_id, TuningKind.STAGE_DOP, choice.target_dop)
        try:
            return self.direct(request)
        except TuningRejected:
            return None

    # ------------------------------------------------------------------
    # 3. DOP monitor
    # ------------------------------------------------------------------
    def set_constraint(self, stage_id: int, seconds_from_now: float) -> None:
        """(Re)set a completion constraint.

        ``stage_id`` may be an intermediate stage — it is translated to its
        scan-progress indicator, discarding any previous plan for that unit
        (the mid-flight constraint change of Figure 30b).
        """
        stage = self.query.stage(stage_id)
        indicator = (
            stage_id if stage.fragment.is_source
            else self.query.plan.probe_scan(stage_id)
        )
        if indicator is None:
            raise TuningRejected(f"stage {stage_id} has no scan indicator")
        self.constraints[indicator] = self.kernel.now + seconds_from_now
        self.kernel.decisions.record(
            "constraint", "set", query_id=self.query.id, stage=stage_id,
            reason=f"finish in {seconds_from_now:.0f}s", indicator=indicator,
            deadline=self.constraints[indicator],
        )

    def start_monitor(self, period: float = 2.0) -> None:
        if self._tick is None:
            self._period = period
            self._tick = self.kernel.schedule(period, self._monitor_tick)

    def stop_monitor(self) -> None:
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None

    def _monitor_tick(self) -> None:
        if self.query.finished:
            self._tick = None
            return
        for unit in tuning_units(self.query):
            deadline = self.constraints.get(unit.indicator_stage)
            if deadline is None:
                continue
            self._adjust_unit(unit, deadline)
        self._tick = self.kernel.schedule(self._period, self._monitor_tick)

    def _adjust_unit(self, unit: TuningUnit, deadline: float) -> None:
        scan = self.query.stages.get(unit.indicator_stage)
        knob = self.query.stages.get(unit.knob_stage)
        if scan is None or knob is None or scan.finished or knob.finished:
            return
        feed = scan.split_feed
        if feed is None or feed.rows_remaining <= 0:
            return
        current_rate = self.collector.scan_consume_rate(unit.indicator_stage)
        if current_rate <= 0:
            return
        time_left = deadline - self.kernel.now
        if time_left <= 0:
            required_ratio = SCALE_UP_RATIO + 1.0  # late: push hard
        else:
            required_rate = feed.rows_remaining / time_left
            required_ratio = required_rate / current_rate

        current_dop = max(1, knob.stage_dop)
        if required_ratio > SCALE_UP_RATIO:
            target = min(self.max_stage_dop, math.ceil(current_dop * required_ratio))
        elif required_ratio < SCALE_DOWN_RATIO:
            # Ahead of schedule: shed resources but keep a safety margin.
            target = max(1, math.floor(current_dop * required_ratio / 0.9))
        else:
            return
        if target == current_dop:
            return
        request = TuningRequest(unit.knob_stage, TuningKind.STAGE_DOP, target)
        try:
            result = self.direct(request)
            result.details["monitor"] = {
                "required_ratio": required_ratio,
                "deadline": deadline,
            }
        except TuningRejected:
            pass
