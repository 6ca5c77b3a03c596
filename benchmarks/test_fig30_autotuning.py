"""Figure 30: automatic DOP tuning on Q2 and Q3.

The DOP planning module picks initial DOPs and per-scan time constraints
for a query deadline; the DOP monitor then tracks scan progress and
adjusts stage DOPs incrementally — scaling *down* (RP actions) when ahead
of schedule to shed resources, and up when behind.  For Q3, a new, tighter
constraint is injected mid-flight (the paper adds "finish S1 within 30 s"
at ~150 s) and the auto-tuner re-plans.
"""

from repro import (
    AccordionEngine,
    CostModel,
    DopPlanner,
    EngineConfig,
    QueryOptions,
    TPCH_QUERIES as QUERIES,
)


def make_engine(catalog):
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    return AccordionEngine(catalog, config=config)


def run_autotuned(catalog, sql, deadline, midflight=None):
    engine = make_engine(catalog)
    plan = engine.coordinator.plan_sql(sql, QueryOptions())
    dop_plan = DopPlanner(catalog, engine.config).plan(plan, deadline)
    query = engine.submit(
        sql,
        QueryOptions(
            initial_stage_dop=max(2, dop_plan.initial_stage_dop),
            initial_task_dop=dop_plan.initial_task_dop,
        ),
    )
    elastic = query.tuning
    for scan_stage, scan_deadline in dop_plan.scan_deadlines.items():
        elastic.set_constraint(scan_stage, scan_deadline)
    elastic.start_monitor(period=2.0)
    if midflight is not None:
        at, stage, seconds = midflight
        engine.kernel.run(until=at, stop_when=lambda: query.finished)
        if not query.finished:
            elastic.set_constraint(stage, seconds)
    engine.run_until_done(query, 1e6)
    return query, elastic, dop_plan


def record_run(record, case, query, elastic, deadline):
    record("Figure 30", case, "deadline", deadline, digits=1)
    record("Figure 30", case, "finished", query.elapsed, digits=1)
    record("Figure 30", case, "actions", len(elastic.tuner.applied), "", 0)
    constraints = len(query.tracker.markers_of("constraint"))
    record("Figure 30", case, "constraints", constraints, "", 0)


def test_fig30a_q2_auto_tuning(record, small_catalog):
    untuned = make_engine(small_catalog).execute(QUERIES["Q2"], max_virtual_seconds=1e6)
    deadline = untuned.elapsed_seconds * 3  # a comfortably loose target

    query, elastic, dop_plan = run_autotuned(small_catalog, QUERIES["Q2"], deadline)
    record_run(record, "Q2 (30a)", query, elastic, deadline)

    # The deadline was met.
    assert query.elapsed <= deadline
    # The planner produced per-scan constraints in dependency order.
    assert len(dop_plan.scan_deadlines) >= 1
    # With a loose deadline the monitor sheds resources (RP actions).
    reductions = [
        r
        for r in elastic.tuner.applied
        if r.request.target < max(2, dop_plan.initial_stage_dop)
    ]
    assert reductions, "expected RP actions while ahead of schedule"


def test_fig30b_q3_auto_tuning_with_midflight_constraint(record, small_catalog):
    untuned = make_engine(small_catalog).execute(QUERIES["Q3"], max_virtual_seconds=1e6)
    deadline = untuned.elapsed_seconds * 2.5

    query, elastic, dop_plan = run_autotuned(
        small_catalog,
        QUERIES["Q3"],
        deadline,
        # A much tighter finish-S1-soon constraint arrives mid-flight.
        midflight=(deadline * 0.25, 1, untuned.elapsed_seconds * 0.05),
    )
    record_run(record, "Q3 (30b)", query, elastic, deadline)

    assert query.elapsed <= deadline
    # The mid-flight constraint was registered (two markers: initial + new).
    assert len(query.tracker.markers_of("constraint")) >= 2
    # The tighter constraint forced the tuner to scale S1 back up (AP).
    constraint_time = query.tracker.markers_of("constraint")[-1].time
    increases = [
        r
        for r in elastic.tuner.applied
        if r.issued_at >= constraint_time and r.request.target > 1
    ]
    assert increases, "expected AP actions after the tighter constraint"
