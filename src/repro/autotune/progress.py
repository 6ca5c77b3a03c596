"""Query progress estimation from table-scan stages (paper Section 5.2).

Because execution is streaming, intermediate stages pull data from the
table-scan stages at the rate of their own processing capacity, so the
scan stage's consumption rate approximates overall progress.  The
remaining execution time of a stage is estimated from the scan stage that
feeds (transitively) its probe input:

    T_remain = V_remain / R_consume
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .collector import RuntimeInfoCollector

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution


def remaining_seconds(
    collector: RuntimeInfoCollector,
    query: "QueryExecution",
    stage_id: int,
    window: float = 3.0,
) -> float | None:
    """T_remain for a stage via its probe-side scan progress.

    Returns ``None`` when no rate is observable yet (query just started).
    """
    scan_id = query.plan.probe_scan(stage_id)
    if scan_id is None:
        return None
    scan_stage = query.stages.get(scan_id)
    if scan_stage is None or scan_stage.split_feed is None:
        return None
    if scan_stage.finished:
        return 0.0
    v_remain = scan_stage.split_feed.rows_remaining
    r_consume = collector.scan_consume_rate(scan_id, window)
    if r_consume <= 0:
        return None
    return v_remain / r_consume

