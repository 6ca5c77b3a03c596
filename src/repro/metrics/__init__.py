"""Metrics: time series, throughput tracking, report rendering."""

from .report import (
    render_curve_points,
    render_fault_report,
    render_series,
    render_table,
)
from .throughput import StageSeries, ThroughputTracker
from .timeseries import TimeSeries

__all__ = [
    "StageSeries",
    "ThroughputTracker",
    "TimeSeries",
    "render_curve_points",
    "render_fault_report",
    "render_series",
    "render_table",
]
