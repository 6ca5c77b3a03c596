"""Tests for the obs layer: span trees, Chrome trace export, profiling,
and the inertness contract (tracing must not perturb the simulation)."""

import json

import pytest

from repro import (
    AccordionEngine,
    CostModel,
    EngineConfig,
    Plan,
    TPCH_QUERIES,
)
from repro.errors import ExecutionError, QueryFailedError, TuningRejected
from repro.obs import MetricsRegistry


def traced_engine(catalog, **trace_kwargs) -> AccordionEngine:
    """Slow engine (tuning has time to act) with the obs layer switched on."""
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    return AccordionEngine(catalog, config=config.with_tracing(**trace_kwargs))


@pytest.fixture(scope="module")
def traced_q3(catalog):
    """A finished traced+profiled Q3 run with one mid-flight tuning action."""
    engine = traced_engine(catalog, profiling=True)
    handle = engine.submit(TPCH_QUERIES["Q3"])
    engine.run_until(2.0)
    assert handle.tuning.ap(1, 3).accepted
    handle.result()
    return handle


# -- span tree shape ---------------------------------------------------------
def test_span_tree_shape(traced_q3):
    trace = traced_q3.trace()
    root = trace.root()
    assert root.kind == "query"
    assert root.meta["query_id"] == traced_q3.id

    stages = trace.spans_of("stage")
    tasks = trace.spans_of("task")
    quanta = trace.spans_of("quantum")
    operators = trace.spans_of("operator")
    assert stages and tasks and quanta and operators

    # Strict parent links: query -> stage -> task -> quantum -> operator.
    assert all(s.parent == root.id for s in stages)
    stage_ids = {s.id for s in stages}
    assert all(t.parent in stage_ids for t in tasks)
    task_ids = {t.id for t in tasks}
    assert all(q.parent in task_ids for q in quanta)
    quantum_ids = {q.id for q in quanta}
    assert all(o.parent in quantum_ids for o in operators)

    by_id = {s.id: s for s in trace.spans}
    for span in trace.spans:
        assert span.parent is None or span.parent in by_id
        assert 0.0 <= span.start <= span.end

    # The query root closes exactly when the execution finishes.
    assert root.end == traced_q3.execution.finished_at


def test_trace_records_rpc_buffer_and_tuning(traced_q3):
    trace = traced_q3.trace()

    rpcs = trace.spans_of("rpc")
    assert rpcs and all(span.meta["count"] >= 1 for span in rpcs)

    buffer_names = {span.name for span in trace.spans_of("buffer")}
    assert {"turn_up", "resize"} <= buffer_names

    tuning_names = {span.name for span in trace.spans_of("tuning")}
    assert "tuning:stage_dop S1" in tuning_names  # the applied action
    assert "build_ready:ready S1" in tuning_names  # hash-table rebuild markers


def test_trace_tree_nesting(traced_q3):
    trace = traced_q3.trace()
    root = trace.root()
    assert {child.id for child in trace.children_of(root.id)} >= {
        span.id for span in trace.spans_of("stage")
    }
    tree = trace.tree()
    assert tree["span"].kind == "query"
    assert any(child["span"].kind == "stage" for child in tree["children"])


# -- Chrome trace-event export ----------------------------------------------
def test_chrome_json_schema(tmp_path, traced_q3):
    path = tmp_path / "q3_trace.json"
    traced_q3.trace().to_chrome_json(path)
    assert path.exists()

    parsed = json.loads(path.read_text())
    assert parsed["displayTimeUnit"] == "ms"
    assert parsed["metadata"]["query_id"] == traced_q3.id
    events = parsed["traceEvents"]
    assert isinstance(events, list) and events

    assert {event["ph"] for event in events} <= {"X", "i", "C", "M"}
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["ts"] >= 0
            assert event["dur"] >= 0

    cats = {event.get("cat") for event in events}
    for required in ("query", "stage", "task", "quantum", "rpc", "buffer", "tuning"):
        assert required in cats, f"missing {required} spans in the trace file"
    # Buffer capacity changes appear as named resize events.
    assert any(
        event.get("cat") == "buffer" and event["name"] == "resize"
        for event in events
    )
    # Metadata names the simulated processes; counters carry throughput.
    assert any(event["ph"] == "M" and event["name"] == "process_name" for event in events)
    assert any(event["ph"] == "C" for event in events)


# -- profiling ---------------------------------------------------------------
def test_profile_report(traced_q3):
    report = traced_q3.profile()
    assert report.entries
    assert all(entry.query_id == traced_q3.id for entry in report.entries)
    assert report.total_wall_seconds > 0
    # Entries are hottest-first and render into a table.
    walls = [entry.wall_ns for entry in report.entries]
    assert walls == sorted(walls, reverse=True)
    assert report.entries[0].operator in report.render()


# -- disabled by default -----------------------------------------------------
def test_obs_disabled_by_default(engine):
    handle = engine.submit("select count(*) from lineitem")
    handle.result()
    assert engine.kernel.tracer.spans == []
    with pytest.raises(ExecutionError, match="tracing is not enabled"):
        handle.trace()
    with pytest.raises(ExecutionError, match="profiling is not enabled"):
        handle.profile()


def test_metrics_snapshot(engine):
    engine.execute("select count(*) from lineitem")
    snapshot = engine.metrics.snapshot()
    assert snapshot["rpc.total_requests"] >= 1
    assert snapshot["sim.events_processed"] >= 1
    assert snapshot["trace.spans"] == 0


def test_metrics_snapshot_raises_what_a_gauge_raises():
    """A broken gauge is a bug to surface, not keys to drop silently from
    ``engine.metrics`` and every report built on it."""
    registry = MetricsRegistry()
    registry.counter("ok").add()

    def broken():
        raise ZeroDivisionError("gauge bug")

    registry.gauge("broken", broken)
    with pytest.raises(ZeroDivisionError, match="gauge bug"):
        registry.snapshot()


# -- inertness: tracing must not change the simulation -----------------------
def _fingerprint(catalog, seed: int, tracing: bool):
    """Run Q3 under a randomized fault plan plus a scripted tuning schedule
    and reduce the run to everything observable: answers, virtual timings,
    event counts, RPC traffic, and the fault timeline."""
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    if tracing:
        config = config.with_tracing(profiling=True)
    engine = AccordionEngine(catalog, config=config)
    plan = Plan.random_faults(
        seed,
        horizon=10.0,
        compute_nodes=4,
        storage_nodes=2,
        node_crashes=1,
        storms=1,
        storm_failure_rate=0.2,
    )
    engine.apply(plan)
    handle = engine.submit(TPCH_QUERIES["Q3"])
    elastic = handle.tuning

    def attempt(verb, stage, target):
        try:
            getattr(elastic, verb)(stage, target)
        except TuningRejected:
            pass

    for at, verb, stage, target in (
        (1.5, "ap", 1, 3),
        (3.0, "ac", 3, 2),
        (4.5, "rp", 1, 2),
    ):
        engine.kernel.schedule_at(
            at, lambda v=verb, s=stage, g=target: attempt(v, s, g)
        )

    rows, outcome = None, "ok"
    try:
        rows = handle.result(1e6).rows
    except QueryFailedError:
        outcome = "failed"
    except ExecutionError:
        outcome = "stuck"
    fingerprint = (
        outcome,
        rows,
        engine.kernel.now,
        engine.kernel.events_processed,
        engine.coordinator.rpc.total_requests,
        engine.coordinator.rpc.retried_requests,
        engine.coordinator.rpc.failed_requests,
        tuple(tuple(sorted(e.items())) for e in handle.fault_history()),
    )
    return fingerprint, engine


@pytest.mark.parametrize("seed", [11, 41])
def test_tracing_is_inert_under_faults_and_tuning(catalog, seed):
    plain, _ = _fingerprint(catalog, seed, tracing=False)
    traced, traced_engine_ = _fingerprint(catalog, seed, tracing=True)
    # The traced run really recorded something...
    assert traced_engine_.kernel.tracer.spans
    # ...yet every observable of the simulation is bit-identical.
    assert plain == traced
