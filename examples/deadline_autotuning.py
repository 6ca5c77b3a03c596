"""Automatic DOP tuning against a latency constraint (paper Section 5.4).

The DOP planning module splits a query deadline into per-scan time
constraints; the DOP monitor then watches each tuning unit's progress
indicator and adjusts the knob stages — shedding resources when ahead of
schedule (RP actions), scaling out when behind (AP actions).

    python examples/deadline_autotuning.py
"""

from repro import (
    AccordionEngine,
    CostModel,
    DopPlanner,
    EngineConfig,
    QueryOptions,
    TPCH_QUERIES,
)


def main() -> None:
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    engine = AccordionEngine.tpch(scale=0.01, config=config)

    # How long does Q3 take untuned?
    untuned = engine.execute(TPCH_QUERIES["Q3"], max_virtual_seconds=1e6)
    print(f"Untuned Q3: {untuned.elapsed_seconds:.1f} virtual seconds")

    deadline = untuned.elapsed_seconds * 2
    print(f"\nTarget: finish within {deadline:.0f}s while minimising resources")

    plan = engine.coordinator.plan_sql(TPCH_QUERIES["Q3"], QueryOptions())
    dop_plan = DopPlanner(engine.catalog, engine.config).plan(plan, deadline)
    print(f"DOP planning module: start at stage DOP {dop_plan.initial_stage_dop}, "
          f"task DOP {dop_plan.initial_task_dop}")
    for scan_stage, scan_deadline in sorted(dop_plan.scan_deadlines.items()):
        print(f"  scan stage S{scan_stage} must finish within {scan_deadline:.0f}s")

    query = engine.submit(
        TPCH_QUERIES["Q3"],
        QueryOptions(
            initial_stage_dop=max(2, dop_plan.initial_stage_dop),
            initial_task_dop=dop_plan.initial_task_dop,
        ),
    )
    elastic = query.tuning
    for scan_stage, scan_deadline in dop_plan.scan_deadlines.items():
        elastic.set_constraint(scan_stage, scan_deadline)
    elastic.start_monitor(period=2.0)

    engine.run_until_done(query)
    met = "MET" if query.elapsed <= deadline else "MISSED"
    print(f"\nFinished at {query.elapsed:.1f}s — deadline {met}")
    print("Auto-tuner actions:")
    for result in elastic.tuner.applied:
        direction = "RP" if result.request.target < max(2, dop_plan.initial_stage_dop) else "AP"
        print(f"  t={result.issued_at:6.1f}s  {direction}  {result.request.describe()}")
    if not elastic.tuner.applied:
        print("  (none needed)")
    print("Rejected requests:", len(query.tracker.markers_of("rejected")))


if __name__ == "__main__":
    main()
