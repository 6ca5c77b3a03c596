"""Plain-text rendering of experiment results (tables and curve series).

The benchmark harness prints the same rows/series the paper reports;
these helpers keep the formatting consistent.
"""

from __future__ import annotations

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

    Combines the recovery counters, the RPC tracker's retry/failure
    totals (engine-wide plus this query's share), the query's own fault
    timeline, and — when faults were injected — the injected timeline:
    three views of the engine's decision log.
    """
    from ..handle import QueryHandle
    from ..obs.decisions import fault_timeline

    if not isinstance(target, QueryHandle):
        raise TypeError(
            f"render_fault_report expects a QueryHandle (got {type(target).__name__})"
        )
    engine = target.engine
    execution = target.execution
    recovery = engine.coordinator.recovery
    rpc = engine.coordinator.rpc
    rows = list(recovery.gauges().items())
    rows.append(("rpc_requests", rpc.total_requests))
    rows.append(("rpc_retried", rpc.retried_requests))
    rows.append(("rpc_failed", rpc.failed_requests))
    if execution is not None:
        rows.append((f"rpc_requests_q{execution.id}", rpc.requests_for(execution.id)))
    lines = [render_table(["counter", "value"], rows)]
    timelines = []
    if execution is not None:
        timelines.append(
            (f"query {execution.id} fault timeline:", execution.fault_history())
        )
    injected = fault_timeline(engine.decisions.of(kind="inject"))
    timelines.append(("injected fault timeline:", injected))
    for title, entries in timelines:
        if entries:
            lines += ["", title]
            lines += [
                f"  t={e['t']:.3f}s  {e['kind']}: {e['detail']}" for e in entries
            ]
    return "\n".join(lines)


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

