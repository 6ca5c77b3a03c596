"""Elastic cluster membership: join, graceful drain, spot preemption,
membership plans, the node-seconds cost model, and control-plane
give-ups that no query owns.

The invariants mirror test_faults.py: membership churn must never change
answers — a drained or preempted node's work either migrates through the
Section 4.4 end-signal path or is recovered by lineage replay, and every
query still returns exactly the reference rows.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    AccordionEngine,
    ClusterConfig,
    Plan,
    NodeDrain,
    NodeJoin,
    QueryOptions,
    RpcOutage,
    SpotPreemption,
    TPCH_QUERIES as QUERIES,
    eval_config,
)
from repro.cluster.membership import (
    COST_PER_NODE_SECOND,
    NODE_JOIN_DELAY,
    SPOT_PRICE_MULTIPLIER,
)
from repro.errors import SchedulingError

from conftest import make_engine, norm_rows, run_until_cond, slow_engine
from test_faults import MAX_EVENTS, reference_rows

Q_AGG = "select l_returnflag, count(*), sum(l_quantity) from lineitem group by l_returnflag"

#: Small fixed topology so membership arithmetic is easy to assert on.
SMALL = ClusterConfig(compute_nodes=2, storage_nodes=2)


def settle(engine, seconds: float = 5.0) -> None:
    """Advance virtual time so scheduled membership actions complete."""
    engine.kernel.run(until=engine.now + seconds)


# -- join -------------------------------------------------------------------
def test_join_grows_schedulable_capacity(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    before_nodes = len(engine.cluster.schedulable_compute)
    before_cores = engine.cluster.schedulable_cores()
    engine.membership.join(2)
    assert engine.membership.pending_joins == 2
    settle(engine)
    assert engine.membership.pending_joins == 0
    assert len(engine.cluster.schedulable_compute) == before_nodes + 2
    assert engine.cluster.schedulable_cores() > before_cores
    stats = engine.metrics.snapshot()
    assert stats["cluster.joins"] == 2
    assert stats["cluster.nodes_peak"] == before_nodes + 2
    assert engine.decisions.count("membership", "node_join") == 2


def test_joined_node_ids_are_monotonic(catalog):
    """Node ids are never reused, even across leave/join cycles."""
    engine = make_engine(catalog, cluster=SMALL)
    engine.membership.join(1)
    settle(engine)
    joined = max(engine.cluster.compute, key=lambda n: n.id)
    first = joined.id
    engine.membership.drain(joined)
    settle(engine)
    assert joined.state == "left"
    engine.membership.join(1)
    settle(engine)
    assert max(n.id for n in engine.cluster.compute) > first


def test_join_takes_provisioning_delay_and_rpc(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    engine.membership.join(1)
    # Before the provisioning delay elapses nothing is active yet.
    engine.kernel.run(until=engine.now + NODE_JOIN_DELAY / 2)
    assert engine.metrics.snapshot()["cluster.joins"] == 0
    settle(engine)
    assert engine.metrics.snapshot()["cluster.joins"] == 1
    join_events = engine.decisions.of(kind="membership", outcome="node_join")
    assert join_events[0].time >= NODE_JOIN_DELAY


def test_new_node_is_used_by_later_queries(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    engine.membership.join(2)
    settle(engine)
    rows = engine.execute(Q_AGG).rows
    assert norm_rows(rows) == reference_rows(catalog, Q_AGG)


# -- graceful drain ---------------------------------------------------------
def test_drain_idle_node_leaves_cleanly(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    engine.membership.join(1)
    settle(engine)
    node = max(engine.cluster.compute, key=lambda n: n.id)
    engine.membership.drain(node)
    assert node.state == "draining"
    settle(engine)
    assert node.state == "left"
    assert node.released_at is not None
    assert engine.metrics.snapshot()["cluster.drains_clean"] == 1
    assert engine.metrics.snapshot()["cluster.drains_escalated"] == 0
    kinds = [d.outcome for d in engine.decisions.of(kind="membership")]
    assert "drain_start" in kinds and "node_left" in kinds


def test_drain_is_idempotent(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    engine.membership.join(1)
    settle(engine)
    node = max(engine.cluster.compute, key=lambda n: n.id)
    engine.membership.drain(node)
    engine.membership.drain(node)  # second call is a no-op
    settle(engine)
    assert engine.metrics.snapshot()["cluster.drains_started"] == 1
    assert engine.metrics.snapshot()["cluster.drains_clean"] == 1


def test_cannot_drain_last_schedulable_node(catalog):
    engine = make_engine(
        catalog, cluster=ClusterConfig(compute_nodes=1, storage_nodes=2)
    )
    with pytest.raises(SchedulingError):
        engine.membership.drain(engine.cluster.compute[0])


def test_cannot_drain_storage_node(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    with pytest.raises(SchedulingError):
        engine.membership.drain(engine.cluster.storage[0])


def test_draining_node_excluded_from_placement(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    engine.membership.join(1)
    settle(engine)
    node = max(engine.cluster.compute, key=lambda n: n.id)
    node.start_drain()
    assert node not in engine.cluster.schedulable_compute
    picked = {engine.cluster.least_loaded_compute() for _ in range(8)}
    assert node not in picked


def test_drain_loaded_node_escalates_and_answers_stay_exact(catalog):
    """Draining a node that hosts an unremovable (root) task escalates to
    the crash path at the timeout; lineage replay still yields exactly
    the reference rows."""
    engine = slow_engine(catalog, cluster=SMALL)
    query = engine.submit(Q_AGG)
    run_until_cond(engine, lambda: query.started_at is not None)
    settle(engine, 1.0)
    loaded = [n for n in engine.cluster.compute if n.task_count > 0]
    assert loaded, "expected the root stage to occupy a compute node"
    engine.membership.drain(loaded[0], timeout=0.5)
    engine.run_until_done(query, max_events=MAX_EVENTS)
    assert engine.metrics.snapshot()["cluster.drains_escalated"] == 1
    assert norm_rows(query.result().rows) == reference_rows(catalog, Q_AGG)
    # The drain was recorded on the query.
    assert any(d.kind == "fault" for d in query.decisions())


@pytest.mark.parametrize("timeout, outcome", [(50.0, "left"), (10.0, "dead")])
def test_drain_partitioned_join_node_keeps_answers(catalog, timeout, outcome):
    """The tasks of a partitioned-join stage are a hash buffer-ID group:
    end-signalling the one on the draining node made its producers drop
    that partition's rows (a third of every group, with the drain reported
    clean).  It runs to completion there instead, or, past the deadline,
    is respawned into the same partition slot."""
    sql = (
        "select o_orderpriority, count(*), sum(l_quantity) from orders, lineitem "
        "where o_orderkey = l_orderkey group by o_orderpriority"
    )
    engine = slow_engine(
        catalog, cluster=ClusterConfig(compute_nodes=3, storage_nodes=2)
    )
    options = QueryOptions(join_distribution="partitioned", initial_stage_dop=3)
    query = engine.submit(sql, options)
    run_until_cond(engine, lambda: query.started_at is not None)
    settle(engine, 3.0)
    node = engine.cluster.node_by_name("compute1")
    join_task = next(t for t in query.stages[1].tasks if t.node is node)
    engine.membership.drain(node, timeout=timeout)
    engine.run_until_done(query, max_events=MAX_EVENTS)
    assert norm_rows(query.result().rows) == reference_rows(catalog, sql)
    assert not join_task.end_signalled
    settle(engine, 60.0)
    assert node.state == outcome


def test_drain_only_storage_node_of_combined_cluster_keeps_answers(catalog):
    """With one storage node on a combined cluster the draining node is
    the only split holder: the replacement scan must go to a surviving
    compute node and read the splits remotely.  Placed back on the
    draining node it was end-signalled again on every poll and the query
    finished on 3840 of 30258 rows, with nothing escalating."""
    sql = "select count(*), sum(l_quantity) from lineitem"
    engine = slow_engine(
        catalog,
        cluster=ClusterConfig(compute_nodes=3, storage_nodes=1, combined=True),
    )
    query = engine.submit(sql, QueryOptions(scan_stage_dop=1))
    engine.run_until(3.0)
    node = engine.cluster.node_by_name("compute0")
    engine.membership.drain(node, timeout=200.0)
    engine.run_until_done(query, max_events=MAX_EVENTS)
    assert norm_rows(query.result().rows) == reference_rows(catalog, sql)
    assert node.state == "left"
    assert engine.metrics.snapshot()["cluster.drains_clean"] == 1
    assert engine.metrics.snapshot()["cluster.drains_escalated"] == 0


# -- spot preemption --------------------------------------------------------
def test_preempt_idle_spot_node_inside_notice(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    engine.membership.join(1, spot=True)
    settle(engine)
    node = max(engine.cluster.compute, key=lambda n: n.id)
    assert node.spot
    engine.membership.preempt(node, notice=1.0)
    settle(engine)
    # Idle node drains within the notice window: a clean leave, not a kill.
    assert node.state == "left"
    assert engine.metrics.snapshot()["cluster.preemption_notices"] == 1
    assert engine.metrics.snapshot()["cluster.preemptions"] == 0


def test_preempt_loaded_node_kills_and_recovers(catalog):
    engine = slow_engine(catalog, cluster=SMALL)
    query = engine.submit(Q_AGG)
    run_until_cond(engine, lambda: query.started_at is not None)
    settle(engine, 1.0)
    loaded = [n for n in engine.cluster.compute if n.task_count > 0]
    assert loaded
    engine.membership.preempt(loaded[0], notice=0.2)
    engine.run_until_done(query, max_events=MAX_EVENTS)
    assert engine.metrics.snapshot()["cluster.preemptions"] == 1
    assert loaded[0].state == "dead"
    assert norm_rows(query.result().rows) == reference_rows(catalog, Q_AGG)


# -- membership plans -------------------------------------------------------
def test_membership_plan_random_is_seed_deterministic():
    a = Plan.random_churn(seed=9, horizon=20.0, joins=3, drains=2, preemptions=2)
    b = Plan.random_churn(seed=9, horizon=20.0, joins=3, drains=2, preemptions=2)
    c = Plan.random_churn(seed=10, horizon=20.0, joins=3, drains=2, preemptions=2)
    assert a.events == b.events
    assert a.events != c.events
    kinds = Counter(type(e) for e in a.events)
    assert kinds == {NodeJoin: 3, NodeDrain: 2, SpotPreemption: 2}
    assert [e.at for e in a.events] == sorted(e.at for e in a.events)
    assert a.describe().startswith("seed 9\n")


def test_apply_plan_runs_scheduled_churn(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    plan = Plan(
        seed=1,
        events=(
            NodeJoin(at=0.5, count=1, spot=True),
            NodeDrain(at=3.0, node="newest"),
        ),
    )
    engine.apply(plan)
    settle(engine, 10.0)
    assert engine.metrics.snapshot()["cluster.joins"] == 1
    assert engine.metrics.snapshot()["cluster.drains_clean"] == 1
    # Base capacity survived; the churned node is gone.
    assert len(engine.cluster.schedulable_compute) == 2


def test_plan_drain_of_newest_never_targets_base_capacity(catalog):
    """With no joined nodes, "newest" resolves to nothing: the base fleet
    is never drained by a churn plan."""
    engine = make_engine(catalog, cluster=SMALL)
    engine.apply(
        Plan(seed=2, events=(NodeDrain(at=0.5, node="newest"),))
    )
    settle(engine)
    assert engine.metrics.snapshot()["cluster.drains_started"] == 0
    assert len(engine.cluster.schedulable_compute) == 2


def test_plan_churn_history_is_bit_identical_per_seed(catalog):
    def run(seed):
        engine = slow_engine(catalog, cluster=SMALL)
        plan = Plan.random_churn(
            seed=seed, horizon=8.0, joins=2, drains=1, preemptions=1
        )
        engine.apply(plan)
        query = engine.submit(Q_AGG)
        engine.run_until_done(query, max_events=MAX_EVENTS)
        settle(engine, 30.0)
        history = engine.decisions.of(kind="membership")
        return history, norm_rows(query.result().rows)

    history_a, rows_a = run(5)
    history_b, rows_b = run(5)
    assert history_a == history_b
    assert rows_a == rows_b == reference_rows(catalog, Q_AGG)


# -- cost model -------------------------------------------------------------
def test_node_seconds_bill_only_while_provisioned(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    base = len(engine.cluster.compute)
    start = engine.now
    engine.membership.join(1)
    settle(engine, 2.0)
    node = max(engine.cluster.compute, key=lambda n: n.id)
    engine.membership.drain(node)
    settle(engine, 2.0)
    assert node.state == "left"
    window = node.released_at - node.provisioned_at
    assert window > 0
    # Total bill = base nodes for the whole window + the churned node's span.
    elapsed = engine.now - start
    expected = base * elapsed + window
    assert engine.membership.cost_between(start) == pytest.approx(expected)
    # After leaving, the bill stops growing for that node.
    frozen = node.provisioned_seconds()
    settle(engine, 5.0)
    assert node.provisioned_seconds() == pytest.approx(frozen)


def test_spot_nodes_bill_at_discount(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    start = engine.now
    engine.membership.join(1, spot=True)
    settle(engine, 3.0)
    node = max(engine.cluster.compute, key=lambda n: n.id)
    base_cost = len(engine.cluster.compute) - 1
    expected = (
        base_cost * (engine.now - start)
        + (engine.now - node.provisioned_at) * SPOT_PRICE_MULTIPLIER
    ) * COST_PER_NODE_SECOND
    assert engine.membership.cost_between(start) == pytest.approx(expected)


# -- plan cache topology key ------------------------------------------------
def test_topology_change_invalidates_plan_cache_key(catalog):
    engine = make_engine(catalog, cluster=SMALL)
    coordinator = engine.coordinator
    fp_before = engine.cluster.topology_fingerprint()
    engine.execute(QUERIES["Q6"])
    hits0 = coordinator._plan_cache_hits.value
    misses0 = coordinator._plan_cache_misses.value
    engine.execute(QUERIES["Q6"])  # same topology: a hit
    assert coordinator._plan_cache_hits.value == hits0 + 1
    engine.membership.join(1)
    settle(engine)
    assert engine.cluster.topology_fingerprint() != fp_before
    engine.execute(QUERIES["Q6"])  # changed topology: keyed apart
    assert coordinator._plan_cache_misses.value == misses0 + 1


# -- control-plane give-ups no query owns -----------------------------------
def test_a_join_whose_registration_gives_up_fails_no_query(catalog):
    """A join's registration RPCs belong to no query.  When they give up
    in an outage, the running query still returns the reference answer,
    no node arrives, and the pending join is released, so the fleet size
    the autoscaler counts is right again."""
    engine = AccordionEngine(
        catalog, config=eval_config(compute_nodes=2, storage_nodes=2)
    )
    registration = 1.0 + NODE_JOIN_DELAY
    engine.apply(Plan(events=(
        NodeJoin(at=1.0, count=1),
        RpcOutage(start=registration, stop=registration + 1.0),
    )))
    handle = engine.submit(QUERIES["Q3"])
    engine.run_until_done(handle, max_events=MAX_EVENTS)
    assert handle.succeeded and handle.fault_history() == []
    assert norm_rows(handle.result().rows) == reference_rows(catalog, QUERIES["Q3"])
    [gave_up] = engine.decisions.of(kind="membership", outcome="join_failed")
    assert registration < gave_up.time < handle.execution.finished_at
    assert engine.coordinator.rpc.failed_requests == 1
    assert engine.decisions.of(kind="fault") == []
    assert engine.membership.pending_joins == 0
    assert len(engine.cluster.compute) == 2


def test_an_unowned_rpc_give_up_is_recorded_and_fails_no_query(catalog):
    """A drain announcement is a request no query owns: its give-up is
    logged as ``rpc_gave_up`` without a query, and the query running
    beside it is left alone."""
    engine = AccordionEngine(
        catalog, config=eval_config(compute_nodes=2, storage_nodes=2)
    )
    handle = engine.submit(QUERIES["Q3"])
    engine.run_until(1.0)
    engine.apply(Plan(events=(RpcOutage(start=1.0, stop=2.0),)))
    engine.coordinator.rpc.charge(1)
    engine.run_until_done(handle, max_events=MAX_EVENTS)
    assert handle.succeeded and handle.fault_history() == []
    [gave_up] = engine.decisions.of(kind="fault", outcome="rpc_gave_up")
    assert gave_up.query_id is None
    assert gave_up.time < handle.execution.finished_at
