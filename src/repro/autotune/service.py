"""ElasticQuery: the per-query tuning handle (Accordion's controller UI).

The §5 loop of one running query is two objects: a cluster-aware
:class:`~repro.obs.throughput.Sampler` (the runtime info collector and
every estimate read from it) and the :class:`DopAutoTuner` that checks,
bids and applies requests.  The handle exposes the paper's notation:

* ``ac(stage, to)``  — add task DOP   ("AC Sn,a,b", Section 6.2)
* ``ap(stage, to)``  — add stage DOP  ("AP Sn,a,b", Section 6.3)
* ``rp(stage, to)``  — reduce stage DOP ("RP Sn,a,b", Section 6.5)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cluster.cluster import Cluster
from ..cluster.scheduler import Scheduler
from ..elastic import TuningKind, TuningRequest, TuningResult
from ..obs.throughput import Bottleneck, Sampler, WhatIfEstimate
from .tuner import DopAutoTuner, TuningUnit, tuning_units

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution

#: Sampling period for runtime info (Section 5.1), virtual seconds.
COLLECTOR_PERIOD = 0.5


class ElasticQuery:
    """Runtime elasticity controls for one query."""

    def __init__(
        self,
        query: "QueryExecution",
        cluster: Cluster,
        scheduler: Scheduler,
        arbiter=None,
    ):
        self.query = query
        self.collector = Sampler(
            query.kernel, query, COLLECTOR_PERIOD, cluster=cluster, window=64
        )
        self.tuner = DopAutoTuner(
            query,
            self.collector,
            scheduler,
            max_stage_dop=max(8, 2 * len(cluster.compute)),
            arbiter=arbiter,
        )

    # -- paper-notation direct tuning ------------------------------------
    def ac(self, stage: int, to: int) -> TuningResult:
        """Add/set task DOP of every task in ``stage`` ("AC Sn,a,b")."""
        return self.tuner.direct(TuningRequest(stage, TuningKind.TASK_DOP, to))

    def ap(self, stage: int, to: int) -> TuningResult:
        """Add stage DOP ("AP Sn,a,b"); partitioned joins DOP-switch."""
        return self.tuner.direct(TuningRequest(stage, TuningKind.STAGE_DOP, to))

    def rp(self, stage: int, to: int) -> TuningResult:
        """Reduce stage DOP ("RP Sn,a,b")."""
        return self.tuner.direct(TuningRequest(stage, TuningKind.STAGE_DOP, to))

    # -- what-if / introspection --------------------------------------------
    def estimate(self, stage: int, target_dop: int) -> WhatIfEstimate | None:
        return self.collector.estimate(stage, target_dop)

    def remaining_time(self, stage: int) -> float | None:
        return self.collector.remaining_time(stage)

    def bottlenecks(self) -> list[Bottleneck]:
        return self.collector.bottlenecks()

    def units(self) -> list[TuningUnit]:
        return tuning_units(self.query)

    def panel(self) -> str:
        """ASCII rendering of the DOP tuning panel (paper Figure 19).

        One line per tuning unit: the knob stage with its current DOPs and
        the scan-stage progress indicator that paces it.
        """
        lines = []
        for unit in self.units():
            knob = self.query.stages[unit.knob_stage]
            indicator = self.query.stages[unit.indicator_stage]
            progress = indicator.scan_progress() or 0.0
            remaining = self.remaining_time(unit.knob_stage)
            remaining_text = f"{remaining:7.1f}s" if remaining is not None else "      ?"
            state = "done" if knob.finished else "running"
            lines.append(
                f"knob S{unit.knob_stage:<3} dop={knob.stage_dop}x{knob.task_dop} "
                f"({state:<7}) <- scan S{unit.indicator_stage} "
                f"{100 * progress:5.1f}% scanned, est. remaining {remaining_text}"
            )
        return "\n".join(lines)

    # -- auto tuning ----------------------------------------------------
    def tune_once(self, stage: int, latency_constraint: float):
        return self.tuner.tune_once(stage, latency_constraint)

    def set_constraint(self, stage: int, seconds_from_now: float) -> None:
        self.tuner.set_constraint(stage, seconds_from_now)

    def start_monitor(self, period: float = 2.0) -> None:
        self.tuner.start_monitor(period)

    def stop_monitor(self) -> None:
        self.tuner.stop_monitor()
