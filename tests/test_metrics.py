"""Tests for time series, the throughput tracker, and report rendering."""

import pytest

from repro.obs import TimeSeries, render_curve_points, render_series, render_table
from repro.data.tpch.queries import QUERIES

from conftest import slow_engine


# -- time series -----------------------------------------------------------------
def test_timeseries_rates():
    ts = TimeSeries("rows")
    for t, v in [(0.0, 0), (1.0, 100), (2.0, 300)]:
        ts.append(t, v)
    rates = ts.rates()
    assert rates.values == [100.0, 200.0]
    assert rates.times == [1.0, 2.0]


def test_timeseries_deltas_and_stats():
    ts = TimeSeries("x")
    for t, v in [(0.0, 1.0), (1.0, 4.0), (2.0, 2.0)]:
        ts.append(t, v)
    assert ts.deltas().values == [3.0, -2.0]
    assert ts.mean() == pytest.approx(7.0 / 3)
    assert ts.max() == 4.0
    assert ts.last() == 2.0


def test_timeseries_rates_skip_zero_dt():
    ts = TimeSeries("x")
    ts.append(1.0, 10)
    ts.append(1.0, 20)
    ts.append(2.0, 30)
    assert ts.rates().values == [10.0]


def test_empty_series():
    ts = TimeSeries("empty")
    assert len(ts) == 0
    assert ts.last() is None
    assert ts.mean() == 0.0


# -- tracker -----------------------------------------------------------------
def test_tracker_collects_per_stage_series(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    engine.run_until_done(query, 1e6)
    tracker = query.tracker
    assert set(tracker.samples[-1].stages) == set(query.stages)
    scan_rows = tracker.series(2, "rows_out")
    assert scan_rows.values[-1] == query.stages[2].rows_out()
    assert scan_rows.values == sorted(scan_rows.values)  # cumulative
    assert len(scan_rows) >= 3


def test_tracker_stops_at_query_end(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q6"])
    engine.run_until_done(query, 1e6)
    engine.run_for(5.0)  # the tracker takes one final sample, then stops
    n = len(query.tracker.samples)
    engine.run_for(10.0)
    assert len(query.tracker.samples) == n


def test_processing_rate_uses_received_for_joins(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    engine.run_until_done(query, 1e6)
    join_rate = query.tracker.processing_rate(1)
    assert max(join_rate.values, default=0) > 0  # join input flowed
    scan_rate = query.tracker.processing_rate(2)
    assert max(scan_rate.values, default=0) > 0


def test_markers(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    engine.decisions.record(
        "tuning", "stage_dop", query_id=query.id, stage=1, reason="AP S1"
    )
    engine.decisions.record("build_ready", "ready", query_id=query.id, stage=1)
    engine.decisions.record("bid", "grant", query_id=query.id, stage=1)
    assert [m.kind for m in query.tracker.markers] == ["tuning", "build_ready"]
    assert query.tracker.markers_of("tuning")[0].reason == "AP S1"
    engine.run_until_done(query, 1e6)


# -- rendering -----------------------------------------------------------------
def test_render_table():
    text = render_table(["name", "value"], [["a", 1.5], ["bb", 2]])
    lines = text.splitlines()
    assert "name" in lines[0] and "value" in lines[0]
    assert "1.50" in text and "bb" in text
    assert set(lines[1]) <= {"-", "+"}


def test_render_series():
    ts = TimeSeries("tp")
    for i in range(10):
        ts.append(float(i), float(i * 10))
    out = render_series(ts, label="stage 1")
    assert out.startswith("stage 1")
    assert "|" in out


def test_render_series_empty():
    assert "(empty)" in render_series(TimeSeries("x"))


def test_render_curve_points_downsamples():
    ts = TimeSeries("x")
    for i in range(100):
        ts.append(float(i), float(i))
    points = render_curve_points(ts, step=10.0)
    assert len(points) == 10
    assert points[0][0] == 0.0
