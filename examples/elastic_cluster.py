"""Elastic cluster membership: autoscaling, graceful drain, and spot
preemption (DESIGN.md Section 12).

One engine, three acts:

1. **Burst** — eight queries land at once on a single-node fleet.  The
   autoscaler sees the admission queue, joins burst capacity (up to 3
   nodes), and the queue drains in parallel.
2. **Preemption** — the burst capacity is spot-priced, and a seeded
   churn plan kills it mid-burst with a 0.3 s notice.  Whatever cannot
   drain in the notice window dies and is re-run via lineage replay —
   the answers do not change.
3. **Settle** — once idle, the autoscaler drains its own nodes
   gracefully (Section 4.4 end-signals, no kills) back to the one-node
   base fleet, and the bill stops.

The report prices the run in node-seconds: the elastic fleet pays for
burst capacity only while it exists (and at the spot discount), which is
the whole point of fleet-level elasticity.

    python examples/elastic_cluster.py
"""

from repro import (
    AccordionEngine,
    Catalog,
    ClusterConfig,
    CostModel,
    EngineConfig,
    Plan,
    SpotPreemption,
    TraceArrivals,
    Workload,
)

QUERY = (
    "select l_returnflag, count(*) as n, sum(l_quantity) as q "
    "from lineitem group by l_returnflag"
)
SCALE = 0.005
SEED = 20250807


def build_engine(catalog: Catalog) -> AccordionEngine:
    cluster = ClusterConfig(compute_nodes=1, storage_nodes=2).with_autoscaling(
        autoscale_max_nodes=3,
        autoscale_spot=True,  # burst capacity is preemptible and cheap
        autoscale_cooldown=0.5,
    )
    config = EngineConfig(
        cost=CostModel().scaled(200.0), page_row_limit=256, cluster=cluster
    ).with_workload(max_queries_per_node=2.0)
    return AccordionEngine(catalog, config=config)


def main() -> None:
    catalog = Catalog.tpch(scale=SCALE, seed=SEED)
    engine = build_engine(catalog)

    # Act 2's villain: spot preemptions scheduled on the virtual clock
    # (as script text: ``at 6.0s preempt newest notice=0.3s``, ...).
    engine.apply(
        Plan(
            seed=1,
            events=(
                SpotPreemption(at=6.0, notice=0.3),
                SpotPreemption(at=12.0, notice=0.3),
            ),
        )
    )

    workload = Workload(engine, seed=SEED)
    workload.add_tenant("burst", [QUERY], TraceArrivals(times=(0.0,) * 8))
    report = workload.run()

    print(report.render())
    print()
    print("membership timeline:")
    for decision in engine.decisions.of(kind="membership"):
        print(
            f"  {decision.time:8.3f}  {decision.outcome:<18} "
            f"{decision.node or ''} {decision.inputs}"
        )

    # Every burst query returns the same rows, churn or no churn.
    answers = {tuple(map(tuple, h.result().rows)) for h in workload.handles}
    assert len(answers) == 1, "membership churn must never change answers"
    assert report.tenants["burst"].completed == 8
    # The fleet is back at its base size and the joined nodes are gone.
    assert report.cluster["nodes_final"] == 1
    print()
    count = engine.decisions.count
    print(
        f"autoscaler: {count('membership', 'autoscale_out')} scale-outs, "
        f"{count('membership', 'autoscale_in')} scale-ins; "
        f"bill ${report.cluster['cost_dollars']:.2f} "
        f"for {report.cluster['node_seconds']:.1f} node-seconds"
    )


if __name__ == "__main__":
    main()
