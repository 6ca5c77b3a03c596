"""Lifecycle races between membership churn, recovery, cancellation, and
admission.

Each test lines up two overlapping lifecycle state machines (drain vs
crash, replay vs cancel, scale-down vs admission) and asserts the engine
neither hangs nor corrupts an answer — the invariants of test_faults.py
hold under composition.
"""

from __future__ import annotations

import pytest

from repro import (
    ClusterConfig,
    QueryCancelledError,
    TraceArrivals,
    Workload,
)
from repro.faults.recovery import DETECTION_DELAY

from conftest import make_engine, norm_rows, run_until_cond, slow_engine
from test_autoscaler import elastic_engine
from test_faults import MAX_EVENTS, reference_rows
from test_membership import Q_AGG, SMALL, settle


def loaded_compute(engine):
    nodes = [n for n in engine.cluster.compute if n.task_count > 0]
    assert nodes, "expected at least one loaded compute node"
    return nodes[0]


# -- cancel during recovery replay ------------------------------------------
def test_cancel_during_recovery_replay(catalog):
    """A node crash starts lineage replay; the user cancels mid-replay.
    The cancel wins, the engine survives, and later queries are exact."""
    engine = slow_engine(catalog, cluster=SMALL)
    query = engine.submit(Q_AGG)
    run_until_cond(engine, lambda: query.started_at is not None)
    settle(engine, 1.0)
    victim = loaded_compute(engine)
    engine.coordinator.recovery.node_down(victim)
    # Cancel after failure detection, while replacement tasks respawn.
    engine.kernel.schedule(DETECTION_DELAY * 2, query.cancel)
    engine.kernel.run(until=engine.now + 60.0, max_events=MAX_EVENTS)
    assert query.state == "cancelled"
    with pytest.raises(QueryCancelledError):
        query.result()
    # The engine is not wedged: a fresh query still runs to the exact answer.
    follow_up = engine.submit(Q_AGG)
    engine.run_until_done(follow_up, max_events=MAX_EVENTS)
    assert norm_rows(follow_up.result().rows) == reference_rows(catalog, Q_AGG)


def test_cancel_during_drain_teardown(catalog):
    """Cancelling a query while a drain is end-signalling its tasks must
    not leave the drain stuck: the node still leaves once idle."""
    engine = slow_engine(catalog, cluster=SMALL)
    engine.membership.join(1)
    settle(engine)
    query = engine.submit(Q_AGG)
    run_until_cond(engine, lambda: query.started_at is not None)
    settle(engine, 1.0)
    victim = loaded_compute(engine)
    engine.membership.drain(victim, timeout=30.0)
    engine.kernel.schedule(0.1, query.cancel)
    engine.kernel.run(until=engine.now + 60.0, max_events=MAX_EVENTS)
    assert query.state == "cancelled"
    # With its tasks gone the draining node is idle, so the drain is clean.
    assert victim.state in ("left", "dead")
    assert engine.metrics.snapshot()["cluster.drains_clean"] + engine.metrics.snapshot()["cluster.drains_escalated"] == 1


# -- crash during drain -----------------------------------------------------
def test_node_crash_mid_drain(catalog):
    """A draining node dies before the drain completes.  The drain poll
    must hand over to recovery (not double-kill, not hang) and the query
    still produces exactly the reference rows."""
    engine = slow_engine(catalog, cluster=SMALL)
    query = engine.submit(Q_AGG)
    run_until_cond(engine, lambda: query.started_at is not None)
    settle(engine, 1.0)
    victim = loaded_compute(engine)
    engine.membership.drain(victim, timeout=60.0)
    assert victim.state == "draining"
    # The crash beats the drain deadline by a wide margin.
    engine.kernel.schedule(
        0.1, lambda: engine.coordinator.recovery.node_down(victim)
    )
    engine.run_until_done(query, max_events=MAX_EVENTS)
    assert victim.state == "dead"
    # The drain neither completed nor escalated: recovery owns the node.
    assert engine.metrics.snapshot()["cluster.drains_clean"] == 0
    assert engine.metrics.snapshot()["cluster.drains_escalated"] == 0
    assert norm_rows(query.result().rows) == reference_rows(catalog, Q_AGG)


def test_preemption_of_already_draining_node_is_noop(catalog):
    """A spot notice landing on a node that is already draining does not
    restart the state machine (drain is idempotent across triggers)."""
    engine = make_engine(catalog, cluster=SMALL)
    engine.membership.join(1, spot=True)
    settle(engine)
    node = max(engine.cluster.compute, key=lambda n: n.id)
    engine.membership.drain(node, timeout=5.0)
    engine.membership.preempt(node, notice=0.1)
    settle(engine)
    assert node.state == "left"
    assert engine.metrics.snapshot()["cluster.drains_started"] == 1
    assert engine.metrics.snapshot()["cluster.preemptions"] == 0


# -- admission while scaling down -------------------------------------------
def test_admission_during_scale_down(catalog):
    """A query submitted while the fleet is draining down is admitted
    against the post-drain capacity and completes exactly."""
    engine = slow_engine(
        catalog,
        cluster=SMALL,
        workload=engine_workload_cfg(),
    )
    engine.membership.join(2)
    settle(engine)
    drainees = sorted(
        engine.membership.joined_nodes, key=lambda n: n.id
    )
    for node in drainees:
        engine.membership.drain(node, timeout=30.0)
    session = engine.session("late")
    handle = session.submit(Q_AGG)
    engine.run_until_done(handle, max_events=MAX_EVENTS)
    settle(engine, 40.0)
    assert all(n.state in ("left", "dead") for n in drainees)
    assert norm_rows(handle.result().rows) == reference_rows(catalog, Q_AGG)
    assert not engine.workload.admission.violations


def engine_workload_cfg():
    from repro import WorkloadConfig

    return WorkloadConfig(max_queries_per_node=2.0)


def test_burst_admission_against_shrinking_fleet(catalog):
    """Queries keep arriving while the autoscaler is already draining the
    burst capacity away: everything completes, nothing violates the
    admission invariants."""
    engine = elastic_engine(catalog, min_nodes=1, max_nodes=3)
    workload = Workload(engine, seed=5)
    # Two bursts separated by an idle gap long enough for scale-in to
    # begin, so the second burst races the drains.
    workload.add_tenant(
        "waves", [Q_AGG], TraceArrivals(times=(0.0, 0.0, 0.0, 0.0, 40.0, 40.0))
    )
    report = workload.run()
    assert report.tenants["waves"].completed == 6
    assert not report.violations
    assert report.cluster["nodes_final"] == 1
