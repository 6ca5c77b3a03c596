"""Fault injection and failure recovery.

The robustness counterpart of test_invariants.py: queries executed under
injected node crashes, task crashes, and control-plane faults must either
recover and produce exactly the reference result, or fail promptly with a
structured :class:`QueryFailedError` — never hang the event loop and never
return wrong answers.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    AccordionEngine,
    Plan,
    NodeCrash,
    QueryFailedError,
    QueryOptions,
    RpcOutage,
    RpcStorm,
    TaskCrash,
)
from repro.cluster.rpc import RpcTracker
from repro.data import Catalog
from repro.data.tpch.queries import QUERIES
from repro.faults.recovery import TASK_RETRY_BUDGET
from repro.plan import LogicalPlanner, prune_columns
from repro.reference import execute_reference
from repro.sim import SimKernel
from repro.sql.parser import parse

from conftest import norm_rows, run_until_cond, slow_engine

#: Upper bound on kernel events for any fault run: generous for the tiny
#: catalogs below, but low enough that a livelock fails the test quickly.
MAX_EVENTS = 5_000_000

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def reference_rows(catalog, sql):
    plan = prune_columns(LogicalPlanner(catalog).plan(parse(sql)))
    return norm_rows(execute_reference(plan, catalog).rows())


def run_with_faults(catalog, sql, plan):
    """Execute ``sql`` under ``plan``; return (engine, query, rows|None)."""
    engine = slow_engine(catalog)
    engine.apply(plan)
    query = engine.submit(sql)
    engine.run_until_done(query, max_events=MAX_EVENTS)
    return engine, query, norm_rows(query.result().rows)


def clean_runtime(catalog, sql):
    engine = slow_engine(catalog)
    query = engine.submit(sql)
    engine.run_until_done(query, max_events=MAX_EVENTS)
    return query.elapsed


# -- fault plans --------------------------------------------------------------
def test_fault_plan_is_data():
    plan = Plan(
        seed=7,
        events=(
            NodeCrash(at=1.0, node="compute1"),
            RpcStorm(start=0.5, stop=2.0, failure_rate=0.25),
        ),
    )
    assert plan.describe().splitlines() == [
        "seed 7",
        "at 1.0s crash compute1",
        "at 0.5s storm until 2.0s rate=0.25 delay=0.0s",
    ]


def test_random_fault_plans_are_seed_deterministic():
    kwargs = dict(horizon=20.0, compute_nodes=4, storage_nodes=2, node_crashes=2, storms=1)
    assert Plan.random_faults(3, **kwargs) == Plan.random_faults(3, **kwargs)
    assert Plan.random_faults(3, **kwargs) != Plan.random_faults(4, **kwargs)
    for crash in Plan.random_faults(3, **kwargs).events:
        assert getattr(crash, "node", None) != "coordinator"


# -- RPC tracker --------------------------------------------------------------
def test_rpc_tracker_introspection(catalog):
    engine = AccordionEngine(catalog)
    query = engine.submit(QUERIES["Q3"])
    rpc = engine.coordinator.rpc
    # The paper's anchor (Section 6.2): initial plan construction for a
    # Q3-shaped plan issues tens of control-plane requests at ~4.8 ms each.
    assert rpc.requests_for(query.id) == query.init_requests
    assert rpc.requests_for(query.id) > 10
    assert rpc.control_plane_busy_until == pytest.approx(
        query.init_requests * engine.config.cost.rpc_request_cost
    )
    assert rpc.requests_for(12345) == 0


def test_rpc_anchor_65_requests():
    """65 requests at the default per-request cost ≈ the paper's ~313 ms."""
    from repro.config import CostModel

    kernel = SimKernel()
    tracker = RpcTracker(kernel, CostModel())
    fired = []
    finish = tracker.after_requests(65, lambda: fired.append(kernel.now), query_id=1)
    assert finish == pytest.approx(0.312)
    kernel.run()
    assert fired == [pytest.approx(0.312)]
    assert tracker.total_requests == 65
    assert tracker.requests_for(1) == 65


def test_rpc_retry_backoff_timing():
    """A request that fails three times costs 3 timeouts plus every
    backoff the retry budget allows (0.01, 0.02 and 0.04 s, none capped)
    before the successful last attempt; retries are counted."""
    from repro.config import CostModel

    kernel = SimKernel()
    tracker = RpcTracker(kernel, CostModel())
    outcomes = iter(["fail", "fail", "fail", "ok"])
    tracker.set_fault_hook(lambda t: next(outcomes))
    finish = tracker.after_requests(1, lambda: None)
    assert finish == pytest.approx(
        3 * 0.05 + (0.01 + 0.02 + 0.04) + CostModel().rpc_request_cost
    )
    assert tracker.retried_requests == 3
    assert tracker.failed_requests == 0


def test_rpc_gives_up_after_budget():
    from repro.config import CostModel

    kernel = SimKernel()
    tracker = RpcTracker(kernel, CostModel())
    tracker.set_fault_hook(lambda t: "fail")
    failures = []
    tracker.on_action_failed = lambda qid, msg: failures.append((qid, msg))
    fired = []
    tracker.after_requests(3, lambda: fired.append(True), query_id=9)
    kernel.run()
    assert not fired
    assert failures and failures[0][0] == 9
    assert tracker.failed_requests == 1


# -- recoverable crashes ------------------------------------------------------
def test_node_crash_mid_q3_recovers_bit_identical(tiny_catalog):
    sql = QUERIES["Q3"]
    expected = reference_rows(tiny_catalog, sql)
    horizon = clean_runtime(tiny_catalog, sql)
    plan = Plan(events=(NodeCrash(at=horizon * 0.5, node="compute2"),))
    engine, query, rows = run_with_faults(tiny_catalog, sql, plan)
    assert rows == expected
    assert engine.metrics.snapshot()["recovery.node_failures"] == 1
    assert query.fault_history(), "fault history must be recorded on the query"


def test_scan_task_crash_resumes_without_replay(tiny_catalog):
    """A stateless scan task is resumed (spool kept, splits released)."""
    sql = QUERIES["Q3"]
    expected = reference_rows(tiny_catalog, sql)
    horizon = clean_runtime(tiny_catalog, sql)
    # Stage ids: 0 root, 1 join+agg, 2 lineitem scan, 3 join, 4/5 scans.
    plan = Plan(events=(TaskCrash(at=horizon * 0.2, stage=2),))
    engine, query, rows = run_with_faults(tiny_catalog, sql, plan)
    assert rows == expected
    stats = engine.metrics.snapshot()
    assert stats["recovery.tasks_crashed"] == 1
    assert stats["recovery.tasks_resumed"] == 1
    assert stats["recovery.tasks_restarted"] == 0


def test_storage_node_crash_reads_through_durable_storage(tiny_catalog):
    """Scans survive their storage node dying: remaining reads bypass the
    dead NIC straight to disaggregated storage."""
    sql = QUERIES["Q3"]
    expected = reference_rows(tiny_catalog, sql)
    horizon = clean_runtime(tiny_catalog, sql)
    plan = Plan(events=(NodeCrash(at=horizon * 0.3, node="storage0"),))
    engine, query, rows = run_with_faults(tiny_catalog, sql, plan)
    assert rows == expected


def test_rpc_storm_is_retried_through(tiny_catalog):
    sql = QUERIES["Q3"]
    expected = reference_rows(tiny_catalog, sql)
    # Rate kept low enough that no single request plausibly exhausts its
    # retry budget (0.1**4 per request); the run is seed-deterministic.
    plan = Plan(
        seed=11, events=(RpcStorm(start=0.0, stop=1e6, failure_rate=0.1, delay=0.002),)
    )
    engine, query, rows = run_with_faults(tiny_catalog, sql, plan)
    assert rows == expected
    assert engine.coordinator.rpc.retried_requests > 0


def test_recovery_is_visible_in_metrics_report(tiny_catalog):
    from repro.obs.report import render_fault_report

    sql = QUERIES["Q3"]
    horizon = clean_runtime(tiny_catalog, sql)
    plan = Plan(events=(NodeCrash(at=horizon * 0.5, node="compute2"),))
    engine, query, _ = run_with_faults(tiny_catalog, sql, plan)
    report = render_fault_report(query)
    assert "node_failures" in report and "rpc_requests" in report
    assert "node_crash: compute2" in report


def test_a_fault_report_is_its_querys_own(tiny_catalog):
    """A held handle's report counts its own recovery, its own RPC
    requests and the faults injected while it ran, so a later faulted
    query on the same engine leaves it byte-equal."""
    sql = QUERIES["Q3"]
    horizon = clean_runtime(tiny_catalog, sql)
    engine, held, _ = run_with_faults(tiny_catalog, sql, Plan(seed=3, events=(
        NodeCrash(at=horizon * 0.5, node="compute2"),
        TaskCrash(at=horizon * 0.2, stage=2),
        RpcStorm(start=0.0, stop=1e6, failure_rate=0.2),
    )))
    before = held.fault_report()
    assert "tasks_respawned | 2" in before and "node_crash: compute2" in before
    now = engine.now
    engine.apply(Plan(seed=4, events=(
        NodeCrash(at=now + horizon * 0.5, node="compute1"),
        TaskCrash(at=now + horizon * 0.2, stage=2),
    )))
    later = engine.submit(sql)
    engine.run_until_done(later, max_events=MAX_EVENTS)
    assert "node_crash: compute1" in later.fault_report()
    assert held.fault_report() == before


# -- scan-task recovery with input in flight ------------------------------------
def scan_sources(task):
    return [d.source for p in task.pipelines for d in p.drivers]


def crash_scan_task(engine, handle, stage_id, when):
    """Advance until an unfinished task of the scan stage satisfies
    ``when(task)``, crash it (node kept), and return it."""
    stage = handle.execution.stages[stage_id]
    hit = []

    def found() -> bool:
        hit[:] = [t for t in stage.tasks if not t.finished and when(t)]
        return bool(hit)

    run_until_cond(engine, found)
    engine.coordinator.recovery.task_down(handle.execution, stage, hit[0])
    return hit[0]


def page_in_flight(task):
    return any(s._inflight is not None for s in scan_sources(task))


@pytest.mark.parametrize("name", ["Q1", "Q6"])
def test_stateful_scan_task_restarts_before_first_fetch_and_mid_transfer(
    tiny_catalog, name
):
    """R2 for a scan that is not stateless (scan -> filter -> project ->
    partial agg in one fragment): the dead task's splits and the feed
    progress it charged all go back, twice over — once crashed with
    nothing fetched from it yet, once more with a page in network
    transfer — and the answer and the feed's books stay exact."""
    sql = QUERIES[name]
    expected = reference_rows(tiny_catalog, sql)
    engine = slow_engine(tiny_catalog)
    handle = engine.submit(sql)
    first = crash_scan_task(
        engine, handle, 1, lambda t: any(s.rows_scanned for s in scan_sources(t))
    )
    assert not first.stateless_scan and not first.output_buffer.ever_fetched
    run_until_cond(engine, lambda: first.replaced_by is not None)
    assert first.output_buffer.aborted
    second = crash_scan_task(engine, handle, 1, page_in_flight)
    assert second is not first
    engine.run_until_done(handle, max_events=MAX_EVENTS)
    assert norm_rows(handle.result().rows) == expected
    stats = engine.metrics.snapshot()
    assert stats["recovery.tasks_restarted"] == 2 and stats["recovery.tasks_resumed"] == 0
    feed = handle.execution.stages[1].split_feed
    assert feed.rows_scanned == feed.total_rows and feed.pending_count == 0


def test_stateless_scan_resumes_with_a_page_in_flight(tiny_catalog):
    """R3 with a page caught mid-transfer: its rows were charged to the
    feed but never reached an operator, so they are un-charged and re-read
    by the fresh task — no row lost, none scanned twice."""
    sql = QUERIES["Q3"]
    expected = reference_rows(tiny_catalog, sql)
    engine = slow_engine(tiny_catalog)
    handle = engine.submit(sql)
    dead = crash_scan_task(engine, handle, 2, page_in_flight)
    assert dead.stateless_scan
    engine.run_until_done(handle, max_events=MAX_EVENTS)
    assert norm_rows(handle.result().rows) == expected
    stats = engine.metrics.snapshot()
    assert stats["recovery.tasks_resumed"] == 1 and stats["recovery.tasks_restarted"] == 0
    assert not dead.output_buffer.aborted and dead.output_buffer.finished
    feed = handle.execution.stages[2].split_feed
    assert feed.rows_scanned == feed.total_rows and feed.pending_count == 0


# -- unrecoverable crashes ----------------------------------------------------
def test_coordinator_crash_fails_query_cleanly(tiny_catalog):
    sql = QUERIES["Q3"]
    horizon = clean_runtime(tiny_catalog, sql)
    engine = slow_engine(tiny_catalog)
    engine.apply(
        Plan(events=(NodeCrash(at=horizon * 0.4, node="coordinator"),))
    )
    query = engine.submit(sql)
    with pytest.raises(QueryFailedError, match="coordinator"):
        engine.run_until_done(query, max_events=MAX_EVENTS)
    assert query.failed and query.finished
    assert query.error.fault_history


def test_a_crash_of_every_compute_node_fails_the_respawn():
    """With no compute node left, recovery cannot place the replacement
    task: the query fails with the scheduler's reason, after one
    ``respawn_failed`` decision."""
    engine = AccordionEngine(Catalog.tpch(scale=0.01, seed=777))
    engine.apply(Plan(events=tuple(
        NodeCrash(at=0.01, node=f"compute{i}") for i in range(10)
    )))
    query = engine.submit(QUERIES["Q3"])
    message = "cannot respawn task3_0: no schedulable compute nodes left in the cluster"
    with pytest.raises(QueryFailedError) as info:
        engine.run_until_done(query, max_events=MAX_EVENTS)
    assert str(info.value) == message
    assert [
        (d.outcome, d.stage, d.reason) for d in engine.decisions.of(kind="recovery")
    ] == [("respawn_failed", 3, "no schedulable compute nodes left in the cluster")]
    assert query.failed and query.error is info.value


def test_rpc_outage_fails_query_instead_of_hanging(tiny_catalog):
    engine = slow_engine(tiny_catalog)
    engine.apply(Plan(events=(RpcOutage(start=0.0, stop=1e9),)))
    query = engine.submit(QUERIES["Q3"])
    with pytest.raises(QueryFailedError, match="control-plane"):
        engine.run_until_done(query, max_events=MAX_EVENTS)
    assert engine.coordinator.rpc.failed_requests >= 1


def test_an_rpc_give_up_after_its_query_finished_is_no_fault(tiny_catalog):
    """An RP's link-update requests time out in an outage and give up
    only after the query finished (the RP itself does not wait on them):
    that give-up used to be logged as ``rpc_gave_up`` against the
    finished query and showed in its fault history."""
    options = QueryOptions(initial_stage_dop=2)
    clean = slow_engine(tiny_catalog).submit(QUERIES["Q3"], options)
    rows = clean.result().rows
    engine = slow_engine(tiny_catalog)
    handle = engine.submit(QUERIES["Q3"], options)
    engine.run_until(clean.execution.finished_at - 0.2)
    engine.apply(Plan(events=(RpcOutage(start=engine.now, stop=1e9),)))
    handle.tuning.rp(1, 1)
    engine.kernel.run(max_events=MAX_EVENTS)
    assert handle.succeeded and handle.elapsed == clean.elapsed
    assert engine.coordinator.rpc.failed_requests == 1
    assert engine.decisions.of(kind="fault", outcome="rpc_gave_up") == []
    assert handle.fault_history() == []
    assert norm_rows(handle.result().rows) == norm_rows(rows)


def test_retry_budget_exhaustion_fails_query(tiny_catalog):
    sql = QUERIES["Q3"]
    horizon = clean_runtime(tiny_catalog, sql)
    events = tuple(
        TaskCrash(at=horizon * (0.1 + 0.08 * i), stage=2)
        for i in range(TASK_RETRY_BUDGET + 3)
    )
    engine = slow_engine(tiny_catalog)
    engine.apply(Plan(events=events))
    query = engine.submit(sql)
    try:
        engine.run_until_done(query, max_events=MAX_EVENTS)
    except QueryFailedError as exc:
        assert "retry budget" in str(exc)
        kinds = [e["kind"] for e in query.fault_history()]
        assert "unrecoverable" in kinds
    else:
        # The scan may outrun the crash schedule; then answers must be exact.
        assert norm_rows(query.result().rows) == reference_rows(tiny_catalog, sql)


def test_failed_query_raises_from_result(tiny_catalog):
    engine = slow_engine(tiny_catalog)
    engine.apply(Plan(events=(NodeCrash(at=0.0, node="coordinator"),)))
    query = engine.submit(QUERIES["Q3"])
    with pytest.raises(QueryFailedError):
        engine.run_until_done(query, max_events=MAX_EVENTS)
    with pytest.raises(QueryFailedError) as info:
        query.result()
    assert info.value.query_id == query.id
    assert "coordinator" in info.value.describe()


# -- determinism --------------------------------------------------------------
def test_same_seed_same_fault_timeline_and_result(tiny_catalog):
    sql = QUERIES["Q3"]

    def run():
        plan = Plan(
            seed=42,
            events=(
                NodeCrash(at=3.0, node="compute1"),
                RpcStorm(start=0.0, stop=1e6, failure_rate=0.2),
            ),
        )
        engine, query, rows = run_with_faults(tiny_catalog, sql, plan)
        timeline = tuple(engine.decisions.of(kind="inject"))
        faults = tuple(tuple(e.items()) for e in query.fault_history())
        return timeline, faults, query.elapsed, rows

    assert run() == run()


# -- property: randomized fault schedules ------------------------------------
@SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_faults_exact_answers_or_clean_failure(tiny_catalog, seed):
    """The headline robustness property: under a randomized fault plan a
    query either recovers to the exact reference answer or raises a
    structured QueryFailedError — it never hangs, never returns garbage."""
    sql = QUERIES["Q3"]
    expected = reference_rows(tiny_catalog, sql)
    plan = Plan.random_faults(
        seed,
        horizon=12.0,
        compute_nodes=4,
        storage_nodes=2,
        node_crashes=2,
        storms=1,
        storm_failure_rate=0.3,
    )
    engine = slow_engine(tiny_catalog)
    engine.apply(plan)
    query = engine.submit(sql)
    try:
        engine.run_until_done(query, max_events=MAX_EVENTS)
    except QueryFailedError as exc:
        assert query.failed and query.finished
        assert exc.query_id == query.id
        assert query.fault_history()
    else:
        assert norm_rows(query.result().rows) == expected
