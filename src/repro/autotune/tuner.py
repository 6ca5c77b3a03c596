"""The DOP auto-tuner (paper Section 5.4, Figure 19).

Supports the three request types:

* **direct DOP tuning** — a manual adjustment, checked by the request
  filter and executed by the dynamic optimizer;
* **one-time auto-tuning** — builds a DOP-time list with the what-if
  service and applies the smallest DOP whose predicted remaining time
  meets the latency constraint;
* **DOP monitor** — periodically tracks each tuning unit's scan progress
  and incrementally adjusts the knob stages to meet per-scan deadlines
  while minimizing resource usage (scaling *down* when ahead of schedule,
  the RP markers of Figure 30).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..elastic.dynamic_optimizer import DynamicOptimizer
from ..elastic.tuning import TuningKind, TuningRequest, TuningResult
from ..errors import TuningRejected
from .collector import RuntimeInfoCollector
from .filter import TuningRequestFilter
from .whatif import WhatIfEstimate, WhatIfService

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution

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
        collector: RuntimeInfoCollector,
        whatif: WhatIfService,
        request_filter: TuningRequestFilter,
        optimizer: DynamicOptimizer,
        max_stage_dop: int = 32,
        arbiter=None,
    ):
        self.query = query
        self.kernel = query.kernel
        self.collector = collector
        self.whatif = whatif
        self.filter = request_filter
        self.optimizer = optimizer
        self.max_stage_dop = max_stage_dop
        #: Cluster-wide :class:`~repro.workload.ResourceArbiter`; when set,
        #: every request that passes the filter becomes a *bid* the arbiter
        #: may grant, trim, or defer before the optimizer applies it.
        self.arbiter = arbiter
        #: Monitor state: indicator scan stage -> absolute virtual deadline.
        self.constraints: dict[int, float] = {}
        self._monitor_running = False
        self.applied: list[TuningResult] = []

    # ------------------------------------------------------------------
    # 1. direct tuning
    # ------------------------------------------------------------------
    def direct(self, request: TuningRequest) -> TuningResult:
        self.filter.check(self.query, request)
        if self.arbiter is not None:
            request = self.arbiter.arbitrate(self.query, request, self.whatif)
        result = self.optimizer.apply(self.query, request)
        self.applied.append(result)
        return result

    # ------------------------------------------------------------------
    # 2. one-time auto tuning
    # ------------------------------------------------------------------
    def tune_once(self, stage_id: int, latency_constraint: float) -> TuningResult | None:
        """Pick the cheapest DOP predicted to finish the stage within
        ``latency_constraint`` seconds and apply it."""
        predictions = self.whatif.dop_time_list(stage_id)
        if not predictions:
            return None
        choice = self._pick(predictions, latency_constraint)
        if choice is None:
            return None
        request = TuningRequest(stage_id, TuningKind.STAGE_DOP, choice.target_dop)
        try:
            return self.direct(request)
        except TuningRejected:
            return None

    @staticmethod
    def _pick(predictions: list[WhatIfEstimate], constraint: float) -> WhatIfEstimate | None:
        meeting = [p for p in predictions if p.t_predicted <= constraint]
        if meeting:
            return min(meeting, key=lambda p: p.target_dop)
        # Nothing meets the constraint: use the fastest configuration.
        return min(predictions, key=lambda p: p.t_predicted)

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
        if self._monitor_running:
            return
        self._monitor_running = True
        self.kernel.schedule(period, lambda: self._monitor_tick(period))

    def stop_monitor(self) -> None:
        self._monitor_running = False

    def _monitor_tick(self, period: float) -> None:
        if not self._monitor_running or self.query.finished:
            self._monitor_running = False
            return
        for unit in tuning_units(self.query):
            deadline = self.constraints.get(unit.indicator_stage)
            if deadline is None:
                continue
            self._adjust_unit(unit, deadline)
        self.kernel.schedule(period, lambda: self._monitor_tick(period))

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
