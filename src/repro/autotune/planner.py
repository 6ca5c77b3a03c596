"""DOP planning module (paper Section 6.5.2).

Before a deadline-constrained query starts, the planning module picks the
initial stage/task DOPs and splits the total latency budget into per-scan
time constraints (e.g. Q3 with a 200 s target: scan S4 within 80 s, scan
S2 within 120 s).  Build-side scans come earlier in the execution-
dependency order, and each scan's share of the budget is proportional to
its estimated data volume (with a floor so small scans get nonzero time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config import EngineConfig
from ..data import Catalog
from ..plan.physical import PhysicalPlan

#: Minimum share of the budget any constrained scan receives.
_MIN_SHARE = 0.2


@dataclass
class DopPlan:
    initial_stage_dop: int
    initial_task_dop: int
    #: scan stage id -> seconds from query start by which it must finish.
    scan_deadlines: dict[int, float] = field(default_factory=dict)


class DopPlanner:
    def __init__(self, catalog: Catalog, config: EngineConfig):
        self.catalog = catalog
        self.config = config

    def plan(self, plan: PhysicalPlan, deadline_seconds: float) -> DopPlan:
        # Scan stages that act as progress indicators (probe chains).
        scans = sorted(
            {
                plan.probe_scan(fragment.id)
                for fragment in plan.fragments.values()
                if not (fragment.dop_fixed or fragment.is_source)
            }
            - {None}
        )
        weights = {}
        for stage_id in scans:
            table = plan.fragment(stage_id).source_table
            weights[stage_id] = max(1, self.catalog.table(table).num_rows)
        total_weight = sum(weights.values()) or 1

        # Allocate budget shares (floored), deepest (build-side) first,
        # with cumulative deadlines along the execution-dependency order.
        shares = {}
        for stage_id in scans:
            share = max(_MIN_SHARE, weights[stage_id] / total_weight)
            shares[stage_id] = share
        norm = sum(shares.values())
        cumulative = 0.0
        deadlines = {}
        for stage_id in sorted(scans, reverse=True):  # deeper stages first
            cumulative += deadline_seconds * shares[stage_id] / norm
            deadlines[stage_id] = cumulative

        initial_stage_dop = self._initial_dop(plan, deadline_seconds)
        return DopPlan(
            initial_stage_dop=initial_stage_dop,
            initial_task_dop=max(1, min(2, initial_stage_dop)),
            scan_deadlines=deadlines,
        )

    def _initial_dop(self, plan: PhysicalPlan, deadline_seconds: float) -> int:
        """Crude starting parallelism: total scan CPU-seconds at DOP 1
        divided by the budget, clamped to the cluster size."""
        total_rows = 0
        for fragment in plan.fragments.values():
            if fragment.is_source:
                total_rows += self.catalog.table(fragment.source_table).num_rows
        per_row = self.config.cost.scan_row_cost * self.config.cost.cpu_multiplier
        # Downstream work is roughly an order of magnitude above raw scan.
        est_seconds = total_rows * per_row * 10
        needed = est_seconds / max(deadline_seconds, 1e-6)
        return max(1, min(self.config.cluster.compute_nodes, math.ceil(needed)))
