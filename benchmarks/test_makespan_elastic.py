"""Makespan/cost harness: static vs elastic vs spot fleets.

The faabric-style experiment for the membership layer: a burst of
identical jobs followed by a sparse tail, swept over (cluster size x job
count), run three ways —

* **static**   — M compute nodes provisioned for the whole run,
* **elastic**  — 1 base node, autoscaled up to M under queue pressure
  and drained back down when idle,
* **spot**     — elastic, but the burst capacity is preemptible (billed
  at the spot discount) and a seeded churn plan kills it repeatedly
  mid-burst; lineage replay re-runs the lost work.

The reproduction target is the elasticity claim transplanted to fleet
level: the elastic fleet matches the static fleet's makespan (the tail
dominates; burst capacity arrives when needed) at a fraction of the
dollars, and the spot fleet is cheaper still while preemptions cost it
nothing in correctness — every run returns bit-identical rows.
"""

from __future__ import annotations

from repro import (
    AccordionEngine,
    ClusterConfig,
    CostModel,
    EngineConfig,
    Plan,
    SpotPreemption,
    TraceArrivals,
    Workload,
)

from conftest import norm_rows

QUERY = (
    "select l_returnflag, count(*), sum(l_quantity) "
    "from lineitem group by l_returnflag"
)
#: Burst at t=0, then a sparse tail that dominates the makespan: the
#: window where a static fleet bills idle nodes and an elastic one does
#: not.
TAIL_TIMES = (150.0, 170.0)
SEED = 13
#: Seeded mid-burst preemption schedule for the spot runs.
PREEMPTION_PLAN = Plan(
    seed=1,
    events=tuple(
        SpotPreemption(at=t, notice=0.3) for t in (5.0, 9.0, 13.0, 17.0, 21.0)
    ),
)


def build_engine(catalog, *, nodes, elastic, max_nodes=None, spot=False):
    cluster = ClusterConfig(compute_nodes=nodes, storage_nodes=2)
    if elastic:
        cluster = cluster.with_autoscaling(
            autoscale_max_nodes=max_nodes,
            autoscale_spot=spot,
            autoscale_cooldown=0.5,
        )
    config = EngineConfig(
        cost=CostModel().scaled(200.0), page_row_limit=256, cluster=cluster
    )
    return AccordionEngine(
        catalog, config=config.with_workload(max_queries_per_node=2.0)
    )


def run_workload(engine, jobs, plan=None):
    if plan is not None:
        engine.apply(plan)
    workload = Workload(engine, seed=SEED)
    workload.add_tenant(
        "mix", [QUERY], TraceArrivals(times=(0.0,) * jobs + TAIL_TIMES)
    )
    report = workload.run()
    rows = [norm_rows(h.result().rows) for h in workload.handles]
    return report, rows


def test_makespan_and_cost_static_vs_elastic_vs_spot(record, small_catalog):
    results = []
    for fleet, jobs in [(2, 12), (3, 12)]:
        static, static_rows = run_workload(
            build_engine(small_catalog, nodes=fleet, elastic=False), jobs
        )
        elastic, elastic_rows = run_workload(
            build_engine(small_catalog, nodes=1, elastic=True, max_nodes=fleet),
            jobs,
        )
        spot, spot_rows = run_workload(
            build_engine(
                small_catalog, nodes=1, elastic=True, max_nodes=fleet, spot=True
            ),
            jobs,
            plan=PREEMPTION_PLAN,
        )
        point = {"jobs": jobs, "static": static, "elastic": elastic, "spot": spot,
                 "rows": (static_rows, elastic_rows, spot_rows)}
        results.append(point)
        for mode in ("static", "elastic", "spot"):
            report, case = point[mode], f"{fleet}x{jobs} {mode}"
            record("Makespan", case, "makespan", report.horizon)
            record("Makespan", case, "cost", report.cluster["cost_dollars"], "$")
            record("Makespan", case, "joins", report.cluster["joins"], "", 0)
            record("Makespan", case, "preemptions", report.cluster["preemptions"], "", 0)
            record("Makespan", case, "done", report.tenants["mix"].completed, "", 0)

    total = len(TAIL_TIMES)
    for point in results:
        static, elastic, spot = point["static"], point["elastic"], point["spot"]
        total_jobs = point["jobs"] + total
        # Everything completes, everywhere — preemptions included.
        for report in (static, elastic, spot):
            assert report.tenants["mix"].completed == total_jobs
        # Bit-identical answers across all three fleets.
        static_rows, elastic_rows, spot_rows = point["rows"]
        assert static_rows == elastic_rows == spot_rows
        assert len({tuple(map(tuple, r)) for r in static_rows}) == 1
        # The elasticity claim: same makespan, fewer dollars.
        assert elastic.horizon <= static.horizon
        assert (
            elastic.cluster["cost_dollars"] < static.cluster["cost_dollars"]
        )
        # Spot burst capacity is cheaper still, despite >= 3 preemptions.
        assert spot.cluster["preemptions"] >= 3
        assert spot.cluster["cost_dollars"] < elastic.cluster["cost_dollars"]
        # The elastic fleet actually scaled and fully scaled back.
        assert elastic.cluster["joins"] >= 1
        assert elastic.cluster["nodes_final"] == 1


def test_spot_churn_reports_are_byte_identical(small_catalog):
    """Two same-seed spot runs — autoscaler decisions, preemption kills,
    lineage replays and all — render byte-identical workload reports."""

    first, second = (
        run_workload(
            build_engine(small_catalog, nodes=1, elastic=True, max_nodes=2, spot=True),
            8,
            plan=PREEMPTION_PLAN,
        )[0]
        for _ in range(2)
    )
    assert first.render() == second.render()
    assert first.to_dict() == second.to_dict()
    assert first.cluster["preemptions"] >= 1
