"""Runtime bottleneck localization (paper Section 5.1).

A stage whose exchange receive buffers keep turning up (growing) is *not*
a bottleneck — it drains faster than its upstream produces.  A stage whose
turn-up counters stay flat while it runs is a computational bottleneck.
The coordinator additionally watches NIC utilization to flag network
bottlenecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .collector import RuntimeInfoCollector

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution

#: NIC busy fraction above which a node is considered network-bound.
NIC_BOTTLENECK_THRESHOLD = 0.9


@dataclass(frozen=True)
class Bottleneck:
    stage: int
    kind: str  # "compute" | "network"
    detail: str = ""


def find_bottlenecks(
    collector: RuntimeInfoCollector,
    query: "QueryExecution",
    window: float = 2.0,
) -> list[Bottleneck]:
    """Stages currently limiting query progress."""
    samples = collector.window_samples(window)
    if len(samples) < 2:
        return []
    first, last = samples[0], samples[-1]
    found: list[Bottleneck] = []
    for stage_id in sorted(query.stages):
        stage = query.stages[stage_id]
        if stage.finished or not stage.started:
            continue
        a = first.stages.get(stage_id)
        b = last.stages.get(stage_id)
        if a is None or b is None:
            continue
        if stage.fragment.is_source:
            # A scan stage bottlenecks the query when its consumers starve:
            # their exchange buffers keep turning up while the scan runs.
            for parent_id in query.plan.parents_of(stage_id):
                pa = first.stages.get(parent_id)
                pb = last.stages.get(parent_id)
                if pa is None or pb is None:
                    continue
                if pb.exchange_turn_up > pa.exchange_turn_up and not pb.finished:
                    found.append(
                        Bottleneck(stage_id, "compute", "consumers starving")
                    )
                    break
            continue
        # A computational bottleneck keeps its exchange buffers populated:
        # data flows in, yet the consumer never finds them empty (the
        # turn-up counter stays flat, Section 5.1).
        receiving = b.rows_received > a.rows_received
        turned_up = b.exchange_turn_up > a.exchange_turn_up
        if receiving and not turned_up:
            found.append(
                Bottleneck(stage_id, "compute", "exchange turn-up counter flat")
            )
    for node_key, utilization in collector.node_nic_utilization().items():
        if utilization >= NIC_BOTTLENECK_THRESHOLD:
            found.append(Bottleneck(-1, "network", f"{node_key} NIC at {utilization:.0%}"))
    return found
