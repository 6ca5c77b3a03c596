"""Per-stage throughput tracking (the curves of Figures 23-30).

Samples each stage's cumulative output rows on a fixed virtual-time period
while the query runs.  The event markers drawn over the curves are the
query's decisions of four kinds in the decision log:

* ``tuning`` — the red dashed lines (a DOP adjustment request),
* ``build_ready`` — the yellow dashed lines (hash table rebuilt),
* ``rejected`` and ``constraint`` — filtered requests, monitor deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim import SimKernel
from .timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution
    from .decisions import Decision


#: Decision kinds drawn as markers on the throughput curves.
MARKER_KINDS = ("tuning", "build_ready", "rejected", "constraint")


@dataclass
class StageSeries:
    rows: TimeSeries
    received: TimeSeries
    dop: TimeSeries
    task_dop: TimeSeries


class ThroughputTracker:
    def __init__(self, kernel: SimKernel, query: "QueryExecution", period: float = 1.0):
        self.kernel = kernel
        self.query = query
        self.period = period
        self.stages: dict[int, StageSeries] = {}
        self._stopped = False
        for stage_id in query.stages:
            self.stages[stage_id] = StageSeries(
                rows=TimeSeries(f"stage{stage_id}.rows"),
                received=TimeSeries(f"stage{stage_id}.received"),
                dop=TimeSeries(f"stage{stage_id}.dop"),
                task_dop=TimeSeries(f"stage{stage_id}.task_dop"),
            )
        self._sample()

    def _sample(self) -> None:
        if self._stopped:
            return
        now = self.kernel.now
        for stage_id, series in self.stages.items():
            sample = self.query.stages[stage_id].sample()
            series.rows.append(now, sample.rows_out)
            series.received.append(now, sample.rows_received)
            series.dop.append(now, sample.stage_dop)
            series.task_dop.append(now, sample.task_dop)
        if self.query.finished:
            self._stopped = True
            return
        self.kernel.schedule(self.period, self._sample)

    def stop(self) -> None:
        self._stopped = True

    def throughput(self, stage_id: int) -> TimeSeries:
        """Output rows/second series for one stage."""
        return self.stages[stage_id].rows.rates()

    def processing_rate(self, stage_id: int) -> TimeSeries:
        """Input rows/second series — the paper's per-stage throughput
        curves for stages whose output is deferred (e.g. join + partial
        aggregation stages).  Scan stages have no exchange input; their
        output rate is the processing rate."""
        stage = self.query.stages[stage_id]
        if stage.fragment.is_source:
            return self.stages[stage_id].rows.rates()
        return self.stages[stage_id].received.rates()

    # -- markers ----------------------------------------------------------
    @property
    def markers(self) -> "list[Decision]":
        """This query's marker decisions (``.time``, ``.kind``, ``.stage``,
        ``.reason``), in order."""
        decisions = self.kernel.decisions.of(query_id=self.query.id)
        return [d for d in decisions if d.kind in MARKER_KINDS]

    def markers_of(self, kind: str) -> "list[Decision]":
        return self.kernel.decisions.of(kind=kind, query_id=self.query.id)
