"""Plain-text rendering of experiment results (tables and curve series).

The benchmark harness prints the same rows/series the paper reports;
these helpers keep the formatting consistent.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .timeseries import TimeSeries


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width ASCII table."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                cell = f"{cell:.2f}"
            columns[i].append(str(cell))
    widths = [max(len(v) for v in col) for col in columns]
    lines = []
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in range(1, len(columns[0])):
        lines.append(
            " | ".join(columns[i][r].ljust(widths[i]) for i in range(len(columns)))
        )
    return "\n".join(lines)


def render_fault_report(target) -> str:
    """Failure/retry counters for one query (pass its ``QueryHandle``).

    Combines the recovery counters over the query's own decisions, its
    RPC request count, its fault timeline and the faults injected while
    it ran: views of the decision log that a later query does not move.
    """
    from ..handle import QueryHandle
    from ..obs.decisions import fault_timeline

    if not isinstance(target, QueryHandle):
        raise TypeError(
            f"render_fault_report expects a QueryHandle (got {type(target).__name__})"
        )
    engine = target.engine
    execution = target.execution
    own = target.decisions()
    rows = list(_recovery_counts(own).items())
    if execution is not None:
        requests = execution.rpc_requests
        if requests is None:
            requests = engine.coordinator.rpc.requests_for(execution.id)
        rows.append((f"rpc_requests_q{execution.id}", requests))
    lines = [render_table(["counter", "value"], rows)]
    timelines = []
    if execution is not None:
        timelines.append(
            (f"query {execution.id} fault timeline:", execution.fault_history())
        )
    # A fleet-level injection (a node crash) belongs to the report of
    # every query it could touch: those running when it fired.
    end = target.finished_at if target.finished_at is not None else float("inf")
    mine = {id(d) for d in own}
    injected = fault_timeline(
        d for d in engine.decisions.of(kind="inject")
        if id(d) in mine
        or (d.query_id is None and target.submitted_at <= d.time < end)
    )
    timelines.append(("injected fault timeline:", injected))
    for title, entries in timelines:
        if entries:
            lines += ["", title]
            lines += [
                f"  t={e['t']:.3f}s  {e['kind']}: {e['detail']}" for e in entries
            ]
    return "\n".join(lines)


def _recovery_counts(decisions) -> dict:
    """``RecoveryManager.gauges()``'s counters over one query's decisions:
    a node failure counts where it cost the query tasks (``node_down``),
    and ``queries_failed`` is 0 or 1."""
    count = Counter()
    lost = resumed = 0
    for d in decisions:
        count[d.kind, d.outcome] += 1
        lost += d.inputs.get("tasks_lost", 0)
        resumed += d.kind == "recovery" and d.inputs.get("mode") == "resume"
    respawned = count["recovery", "respawn"]
    return {
        "node_failures": count["fault", "node_down"],
        "tasks_crashed": count["inject", "task_crash"] + lost,
        "tasks_respawned": respawned,
        "tasks_resumed": resumed,
        "tasks_restarted": respawned - resumed,
        "queries_failed": count["recovery", "unrecoverable"]
        + count["recovery", "respawn_failed"]
        + count["fault", "node_crash"],
    }


def render_series(series: TimeSeries, width: int = 60, label: str | None = None) -> str:
    """ASCII sparkline of a time series (throughput curves)."""
    if not series.values:
        return f"{label or series.name}: (empty)"
    peak = max(series.values) or 1.0
    blocks = " .:-=+*#%@"
    chars = []
    for value in series.values[: width]:
        idx = min(len(blocks) - 1, int(value / peak * (len(blocks) - 1)))
        chars.append(blocks[idx])
    head = label or series.name
    return f"{head} (peak={peak:.0f}): |{''.join(chars)}|"

