"""The workload-layer autoscaler: queue/deadline-driven scale-out,
idle-driven scale-in, fleet bounds, base-capacity protection, cost
accounting in the workload report, and same-seed bit-identity.
"""

from __future__ import annotations

from repro import (
    AccordionEngine,
    ClusterConfig,
    EngineConfig,
    Plan,
    SpotPreemption,
    TraceArrivals,
    Workload,
)
from repro.config import CostModel
from repro.workload import autoscaler

from conftest import make_engine, norm_rows
from test_faults import reference_rows

Q_AGG = "select l_returnflag, count(*), sum(l_quantity) from lineitem group by l_returnflag"


def elastic_engine(
    catalog,
    *,
    min_nodes: int = 1,
    max_nodes: int = 4,
    spot: bool = False,
    multiplier: float = 200.0,
    autoscale_kwargs: dict | None = None,
    **workload_kwargs,
):
    cluster = ClusterConfig(
        compute_nodes=min_nodes, storage_nodes=2
    ).with_autoscaling(
        autoscale_max_nodes=max_nodes,
        autoscale_spot=spot,
        **(autoscale_kwargs or {}),
    )
    config = EngineConfig(
        cost=CostModel().scaled(multiplier), page_row_limit=256, cluster=cluster
    )
    workload_kwargs.setdefault("max_queries_per_node", 2.0)
    config = config.with_workload(**workload_kwargs)
    return AccordionEngine(catalog, config=config)


def run_burst(engine, jobs: int = 6, seed: int = 7, deadline=None):
    workload = Workload(engine, seed=seed)
    workload.add_tenant(
        "burst", [Q_AGG], TraceArrivals(times=(0.0,) * jobs), deadline=deadline
    )
    report = workload.run()
    return report, workload


# -- wiring -----------------------------------------------------------------
def test_autoscaler_absent_without_autoscale_flag(catalog):
    engine = make_engine(catalog)
    assert engine.workload.autoscaler is None


def test_autoscaler_present_with_autoscale_flag(catalog):
    engine = elastic_engine(catalog)
    assert engine.workload.autoscaler is not None
    assert engine.workload.autoscaler.min_nodes == 1
    assert engine.workload.autoscaler.max_nodes == 4


# -- scale out / scale in ---------------------------------------------------
def test_burst_scales_out_then_back_to_min(catalog):
    engine = elastic_engine(catalog)
    report, _ = run_burst(engine)
    assert report.tenants["burst"].completed == 6
    assert engine.metrics.snapshot()["autoscaler.scale_outs"] >= 1
    assert report.cluster["joins"] >= 1
    # Every burst-time join was drained away once the queue emptied.
    assert report.cluster["drains_clean"] == report.cluster["joins"]
    assert report.cluster["nodes_final"] == 1
    assert all(n.state == "left" for n in engine.membership.joined_nodes)
    # The base node was never a drain victim.
    assert engine.cluster.compute[0].state == "active"


def test_fleet_respects_max_nodes(catalog):
    engine = elastic_engine(catalog, max_nodes=2)
    report, _ = run_burst(engine, jobs=8)
    assert report.cluster["nodes_peak"] <= 2
    assert report.tenants["burst"].completed == 8


def test_more_capacity_shortens_makespan(catalog):
    static = elastic_engine(catalog, min_nodes=1, max_nodes=1)
    report_static, _ = run_burst(static)
    elastic = elastic_engine(catalog, min_nodes=1, max_nodes=4)
    report_elastic, _ = run_burst(elastic)
    assert report_elastic.horizon < report_static.horizon


def test_deadline_pressure_triggers_scale_out(catalog, monkeypatch):
    # Queue-depth trigger is effectively off; only deadline slack fires.
    monkeypatch.setattr(autoscaler, "QUEUE_HIGH", 99)
    monkeypatch.setattr(autoscaler, "DEADLINE_SLACK", 1e9)
    engine = elastic_engine(catalog, max_queries_per_node=1.0)
    report, _ = run_burst(engine, jobs=4, deadline=30.0)
    assert engine.metrics.snapshot()["autoscaler.scale_outs"] >= 1
    assert report.cluster["joins"] >= 1


def test_no_churn_when_fleet_is_sufficient(catalog):
    engine = elastic_engine(
        catalog, min_nodes=2, max_nodes=4, max_queries_per_node=4.0
    )
    workload = Workload(engine, seed=3)
    workload.add_tenant("light", [Q_AGG], TraceArrivals(times=(0.0,)))
    report = workload.run()
    assert report.tenants["light"].completed == 1
    assert report.cluster["joins"] == 0
    assert report.cluster["drains_clean"] == 0
    assert len(engine.cluster.schedulable_compute) == 2


# -- cost accounting --------------------------------------------------------
def test_spot_scaling_is_cheaper_not_slower(catalog):
    """The spot flag changes billing, not behaviour: same horizon, same
    churn, lower dollars."""
    on_demand, _ = run_burst(elastic_engine(catalog, spot=False))
    spot, _ = run_burst(elastic_engine(catalog, spot=True))
    assert spot.horizon == on_demand.horizon
    assert spot.cluster["joins"] == on_demand.cluster["joins"]
    assert spot.cluster["node_seconds"] == on_demand.cluster["node_seconds"]
    if spot.cluster["joins"]:
        assert spot.cluster["cost_dollars"] < on_demand.cluster["cost_dollars"]


def test_report_renders_cluster_line(catalog):
    engine = elastic_engine(catalog)
    report, _ = run_burst(engine)
    rendered = report.render()
    assert "cluster:" in rendered
    assert "cost=$" in rendered
    assert report.to_dict()["cluster"]["cost_dollars"] > 0


# -- determinism ------------------------------------------------------------
def test_elastic_runs_are_byte_identical_per_seed(catalog):
    report_a, _ = run_burst(elastic_engine(catalog), seed=11)
    report_b, _ = run_burst(elastic_engine(catalog), seed=11)
    assert report_a.render() == report_b.render()
    assert report_a.to_dict() == report_b.to_dict()


# -- chaos: autoscaling + seeded churn + spot preemption at once ------------
Q_FILTERED = "select count(*), sum(l_extendedprice) from lineitem where l_quantity < 30"


def run_chaos(catalog, seed: int = 20250807):
    """Two tenants on an autoscaled spot fleet under a seeded churn plan,
    plus one preemption pinned late enough that burst capacity is up."""
    engine = elastic_engine(
        catalog, max_nodes=3, spot=True, autoscale_kwargs={"autoscale_cooldown": 0.5}
    )
    churn = Plan.random_churn(
        seed=seed, horizon=8.0, joins=1, preemptions=2, notice=0.3
    )
    engine.apply(
        Plan(
            seed=seed, events=churn.events + (SpotPreemption(at=6.0, notice=0.3),)
        )
    )
    workload = Workload(engine, seed=seed)
    workload.add_tenant("a", [Q_AGG, Q_FILTERED], TraceArrivals(times=(0.0,) * 6))
    workload.add_tenant("b", [Q_FILTERED, Q_AGG], TraceArrivals(times=(2.0,) * 4))
    report = workload.run()
    answers = [(h.sql, tuple(map(tuple, h.result().rows))) for h in workload.handles]
    return report, answers, engine.decisions.of(kind="membership")


def test_chaos_churn_keeps_one_exact_answer_per_query_and_repeats_per_seed(catalog):
    report, answers, history = run_chaos(catalog)
    assert report.cluster["joins"] > 0, "chaos plan produced no membership churn"
    # However many nodes died under them, all copies of a query agree
    # bit for bit, and with the oracle.
    distinct = set(answers)
    assert len(answers) == 10
    assert sorted(sql for sql, _ in distinct) == sorted([Q_AGG, Q_FILTERED])
    for sql, rows in distinct:
        assert norm_rows(rows) == reference_rows(catalog, sql)
    again, answers_again, history_again = run_chaos(catalog)
    assert answers_again == answers
    assert again.render() == report.render()
    assert again.to_dict() == report.to_dict()
    assert history_again == history
