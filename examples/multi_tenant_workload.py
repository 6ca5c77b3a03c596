"""Multi-tenant workload: sessions, admission control, and the resource
arbiter (DESIGN.md Section 11).

Four tenants share one simulated Accordion cluster:

* ``batch`` — a long join that grabs extra cores mid-flight via runtime
  tuning (Section 4.4 intra-stage scaling),
* ``bi`` and ``etl`` — interactive mixes with Poisson / closed-loop
  arrivals going through the admission controller,
* ``rush`` — a deadline tenant whose query the arbiter rescues by
  *revoking* the batch tenant's over-baseline cores (an end-signal task
  removal on the victim stage).

The run demonstrates the three invariants the workload layer promises:
every answer is bit-identical to an isolated run, the admission policy
is never violated, and the whole run — report included — is
byte-identical across same-seed executions.

    python examples/multi_tenant_workload.py
"""

from repro import (
    AccordionEngine,
    Catalog,
    ClosedLoop,
    CostModel,
    EngineConfig,
    PoissonArrivals,
    TPCH_QUERIES,
    TraceArrivals,
    Workload,
)

#: Integer-only aggregate over a join: exact under any degree of
#: parallelism, so tuning/revocation cannot perturb the answer.
JOIN_SQL = (
    "select o_orderdate, count(*) as n from orders, lineitem "
    "where l_orderkey = o_orderkey group by o_orderdate order by o_orderdate"
)
SCALE = 0.005
SEED = 20250622


def build_engine(catalog: Catalog) -> AccordionEngine:
    config = (
        EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
        .with_cluster(compute_nodes=2)  # 16 cores: scarcity makes policy visible
        .with_workload(
            max_concurrent_queries=4,
            queue_policy="priority",
            priority_aging_rate=0.1,
            arbitration="deadline",
            arbiter_period=1.0,
            revocation_pin_seconds=5.0,
        )
        .with_tracing()
    )
    return AccordionEngine(catalog, config=config)


def run_once(catalog: Catalog):
    """One full 4-tenant run; returns (report, answers, engine, batch)."""
    engine = build_engine(catalog)

    # Tenant 1 (batch): starts first and scales its join stage out to hog
    # most of the 16 cores — every extra core is "over baseline", i.e.
    # revocable if someone needier shows up.
    batch = engine.session("batch", priority=0.0).submit(JOIN_SQL)
    engine.run_for(2.0)
    knob = batch.tuning.units()[0].knob_stage
    batch.tuning.ap(knob, 12)

    # Tenants 2-4 run through the workload driver, genuinely interleaved.
    workload = Workload(engine, seed=7)
    workload.add_tenant(
        "bi",
        [TPCH_QUERIES["Q6"], TPCH_QUERIES["Q14"]],
        PoissonArrivals(rate=0.05, count=2),
        priority=1.0,
    )
    workload.add_tenant("etl", [TPCH_QUERIES["Q1"]], ClosedLoop(count=2))
    workload.add_tenant(
        "rush", [JOIN_SQL], TraceArrivals((1.0,)), priority=2.0, deadline=4.0
    )
    report = workload.run()
    batch_result = batch.result()

    answers = {JOIN_SQL: batch_result.rows}
    for handle in workload.handles:
        answers.setdefault(handle.sql, handle.result().rows)
    return report, answers, engine, batch


def main() -> None:
    catalog = Catalog.tpch(scale=SCALE, seed=SEED)

    print("Running the 4-tenant workload...")
    report, answers, engine, batch = run_once(catalog)
    print()
    print(report.render())

    revokes = engine.decisions.of(kind="revoke")
    print()
    print(f"arbiter bids logged: {len(engine.decisions.of(kind='bid'))}")
    print(f"revocations: {len(revokes)}")
    for revoke in revokes:
        print(
            f"  t={revoke.time:7.3f}s  Q{revoke.query_id} S{revoke.stage} "
            f"-{revoke.inputs['cores']} cores  ({revoke.tenant})"
        )
    assert len(revokes) >= 1, "expected the deadline tenant to trigger a revocation"
    # The trace shows the same decisions, one instant each.
    in_trace = [s for s in engine.tracer.spans if s.name.startswith("revoke:")]
    assert len(in_trace) == len(revokes)
    assert engine.workload.admission.violations == [], "admission policy violated"

    # Bit-identity: each answer equals an isolated, single-tenant run.
    print()
    print("Checking answers against isolated runs...")
    isolated = AccordionEngine(catalog, config=EngineConfig(page_row_limit=256))
    for sql, rows in sorted(answers.items()):
        expected = isolated.execute(sql).rows
        assert rows == expected, f"answer diverged under multi-tenancy: {sql[:60]}"
        print(f"  exact ({len(rows):4d} rows): {sql[:64]}...")

    # Determinism: a second same-seed run reproduces the report byte for byte.
    print()
    print("Re-running with the same seed...")
    report2, answers2, _, _ = run_once(catalog)
    assert report.render() == report2.render(), "report not byte-identical"
    assert answers == answers2
    print("second run: report byte-identical, answers identical")

    rush = report.tenants["rush"]
    print()
    print(
        f"rush tenant: {rush.deadline_met}/{rush.deadline_total} deadlines met "
        f"(p95 latency {rush.p95_latency:.2f}s)"
    )


if __name__ == "__main__":
    main()
