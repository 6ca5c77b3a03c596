"""Figure 21: the distributed physical plan of TPC-H Q3.

Paper layout: S0 output/final-agg, S1 join (+ partial agg) fed by the S2
lineitem scan, S3 join fed by the S4 orders scan with the S5 customer scan
on its build side — with both dependency kinds visible (data dependency
S1<-S2, execution dependency S1<-S3 via the hash build).
"""

from repro import AccordionEngine, QueryOptions, TPCH_QUERIES as QUERIES

from conftest import emit


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


def test_fig21_q3_distributed_plan(record, eval_catalog):
    engine = AccordionEngine(eval_catalog)

    plan = engine.coordinator.plan_sql(QUERIES["Q3"], QueryOptions())
    emit("Figure 21: distributed physical plan of Q3", plan.describe())
    joins = [
        n
        for f in plan.fragments.values()
        for n in _walk(f.root)
        if n.__class__.__name__ == "PJoinNode"
    ]
    record("Figure 21", "Q3", "stages", len(plan.fragments), "", 0)
    record("Figure 21", "Q3", "joins", len(joins), "", 0)

    assert len(plan.fragments) == 6
    assert plan.fragment(0).dop_fixed                      # output stage
    assert plan.fragment(2).source_table == "lineitem"     # S2
    assert plan.fragment(4).source_table == "orders"       # S4
    assert plan.fragment(5).source_table == "customer"     # S5

    s1, s3 = plan.fragment(1), plan.fragment(3)
    # Data dependency: S1 streams probe data from S2.
    assert s1.probe_child == 2
    # Execution dependency: S1's build side comes from the S3 join stage.
    assert s1.build_children == [3]
    assert s3.probe_child == 4 and s3.build_children == [5]
    assert len(joins) == 2
