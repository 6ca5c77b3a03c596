"""The task-topology primitives (``repro.cluster.topology``): every site
that changes a running query's task graph — initial scheduling, AC/AP/RP,
the partitioned-join group switch, crash respawn, node drain — pinned to
the exact control-plane totals and virtual times recorded at the commit
before the five copies of the Section 4.4 wiring were merged, plus a
source lint that keeps the wiring calls in that one module.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import (
    ClusterConfig,
    Plan,
    NodeCrash,
    QueryOptions,
    RpcOutage,
    RpcStorm,
    TaskCrash,
)
from repro.data.tpch.queries import QUERIES
from repro.errors import TuningRejected

from conftest import builds_ready, norm_rows, run_until_cond, slow_engine
from test_faults import MAX_EVENTS, reference_rows

PARTITIONED = QueryOptions(join_distribution="partitioned")


def measure(engine, query, *extra):
    """(rpc total, init requests, kernel events, finish time, *extra)."""
    engine.run_until_done(query, max_events=MAX_EVENTS)
    assert query.succeeded
    return (
        engine.coordinator.rpc.total_requests,
        query.init_requests,
        engine.kernel.events_processed,
        query.finished_at,
        *extra,
    )


# -- one scenario per call site ---------------------------------------------
def q3_initial(catalog):
    engine = slow_engine(catalog)
    return measure(engine, engine.submit(QUERIES["Q3"]))


def q3_ac(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    engine.run_until(2.0)
    query.tuning.ac(1, 3)
    return measure(engine, query)


def q3_ap(catalog):
    """A join stage (parent links, broadcast replay, build watch), then a
    scan stage (split feed shared with the new task)."""
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    engine.run_until(1.5)
    query.tuning.ap(1, 3)
    engine.run_until(3.0)
    query.tuning.ap(2, 2)
    return measure(engine, query)


def q3_rp(catalog):
    """End signals through the child buffers, then to scan drivers."""
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(initial_stage_dop=3))
    engine.run_until(2.0)
    query.tuning.rp(1, 1)
    engine.run_until(3.0)
    query.tuning.rp(2, 1)
    return measure(engine, query)


def q2j_switch(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q2J"], PARTITIONED)
    run_until_cond(engine, builds_ready(query, 1))
    result = query.tuning.ap(1, 4)
    out = measure(engine, query)
    return (*out, result.shuffle_seconds, result.build_seconds)


def crash(catalog, stage):
    engine = slow_engine(catalog)
    engine.apply(Plan(events=(TaskCrash(at=5.0, stage=stage),)))
    query = engine.submit(QUERIES["Q3"])
    out = measure(engine, query)
    stats = engine.metrics.snapshot()
    return (*out, stats["recovery.tasks_resumed"], stats["recovery.tasks_restarted"])


def crash_resume(catalog):
    return crash(catalog, 2)  # stateless lineitem scan: spool kept


def crash_restart(catalog):
    return crash(catalog, 1)  # join + partial agg: spool discarded, replay


def ap_while_producer_crashed(catalog):
    """AP of a join stage between the crash of its build-side producer
    and that producer's respawn: the new task links to the doomed
    producer as it always did, and the respawn links to it in turn."""
    engine = slow_engine(catalog)
    engine.apply(Plan(events=(TaskCrash(at=2.0, stage=3),)))
    query = engine.submit(QUERIES["Q5"])
    engine.run_until(2.0 + 1e-6)
    (producer,) = query.stages[3].tasks
    assert producer.crashed and not producer.recovered
    query.tuning.ap(1, 3)
    out = measure(engine, query)
    assert norm_rows(query.result().rows) == reference_rows(catalog, QUERIES["Q5"])
    return (*out, engine.metrics.snapshot()["recovery.tasks_restarted"])


def crash_hash_node(catalog, node_name):
    """Partitioned Q2J on a combined cluster: compute1 hosts hash
    *producers* (the respawn keeps the group order), compute2 both hash
    *consumers* (each replacement takes its dead task's partition slot)."""
    engine = slow_engine(
        catalog,
        cluster=ClusterConfig(compute_nodes=3, storage_nodes=2, combined=True),
    )
    engine.apply(Plan(events=(NodeCrash(at=5.0, node=node_name),)))
    options = QueryOptions(join_distribution="partitioned", initial_stage_dop=2)
    query = engine.submit(QUERIES["Q2J"], options)
    out = measure(engine, query)
    assert norm_rows(query.result().rows) == reference_rows(catalog, QUERIES["Q2J"])
    return (*out, engine.metrics.snapshot()["recovery.tasks_respawned"])


def crash_hash_producers(catalog):
    return crash_hash_node(catalog, "compute1")


def crash_hash_consumers(catalog):
    return crash_hash_node(catalog, "compute2")


def drain(catalog, scan_dop, node_name):
    """Combined cluster, so scan tasks live on drainable nodes."""
    engine = slow_engine(
        catalog,
        cluster=ClusterConfig(compute_nodes=3, storage_nodes=2, combined=True),
    )
    query = engine.submit(QUERIES["Q3"], QueryOptions(scan_stage_dop=scan_dop))
    engine.run_until(3.0)
    node = engine.cluster.node_by_name(node_name)
    assert any(t.node is node for t in query.stages[2].active_group)
    engine.membership.drain(node, timeout=200.0)
    out = measure(engine, query)
    engine.kernel.run(until=engine.now + 5.0)
    assert norm_rows(query.result().rows) == reference_rows(catalog, QUERIES["Q3"])
    stats = engine.metrics.snapshot()
    return (*out, stats["cluster.drains_clean"], stats["cluster.drains_escalated"])


def drain_scan_node(catalog):
    return drain(catalog, 2, "compute1")  # a survivor absorbs the splits


def drain_whole_scan(catalog):
    return drain(catalog, 1, "compute0")  # replacements are attached first


#: Recorded at the parent commit (a88684a), asserted exactly: the merge
#: of the wiring paths must not move a single request or event.
GOLDEN = {
    "q3_initial": (28, 28, 2000, 36.249796339999996),
    "q3_ac": (28, 28, 1963, 17.854185111199993),
    "q3_ap": (46, 28, 2362, 17.8323363336),
    "q3_rp": (116, 102, 2358, 31.002663187199996),
    "q2j_switch": (35, 18, 4698, 47.851424767999966, 0.48644000000000354, 2.005480876800002),
    "crash_resume": (32, 28, 1997, 36.249796339999996, 1, 0),
    "crash_restart": (34, 28, 2100, 36.249796339999996, 0, 1),
    "ap_while_producer_crashed": (78, 58, 2465, 22.66544241599999, 1),
    "crash_hash_producers": (43, 37, 2335, 75.85999528000004, 1),
    "crash_hash_consumers": (53, 37, 2133, 81.09471527999999, 2),
    "drain_scan_node": (46, 43, 1360, 36.34825078720001, 1, 0),
    "drain_whole_scan": (39, 28, 1383, 36.27925392640002, 1, 0),
}

SCENARIOS = [
    q3_initial, q3_ac, q3_ap, q3_rp, q2j_switch,
    crash_resume, crash_restart, ap_while_producer_crashed, crash_hash_producers, crash_hash_consumers,
    drain_scan_node, drain_whole_scan,
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
def test_call_site_is_bit_identical_to_recorded_golden(catalog, scenario):
    assert scenario(catalog) == GOLDEN[scenario.__name__]


# -- the two rules ----------------------------------------------------------
def test_rp_of_a_hash_group_member_is_rejected(catalog):
    """The final stage of a GROUP BY over a partitioned exchange is a
    buffer-ID group: an end signal would drop its partitions."""
    engine = slow_engine(catalog)
    query = engine.submit(
        QUERIES["Q2J"], QueryOptions(join_distribution="partitioned", initial_stage_dop=2)
    )
    engine.run_until(2.0)
    # Imported here so the goldens above stay runnable at the parent commit.
    from repro.cluster.topology import detach_tasks

    stage = query.stages[1]
    with pytest.raises(TuningRejected) as info:
        detach_tasks(engine.coordinator.scheduler, query, stage, stage.active_group[1:])
    assert info.value.reason == "hash-group"
    assert not any(t.end_signalled for t in stage.tasks)
    engine.run_until_done(query, max_events=MAX_EVENTS)
    assert norm_rows(query.result().rows) == reference_rows(catalog, QUERIES["Q2J"])


def test_tuning_requests_are_charged_to_their_query(catalog):
    """AP, RP and the group switch pass ``query_id``: the per-query count
    is the initialization requests plus every tuning request."""
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(initial_stage_dop=2))
    other = engine.submit(QUERIES["Q2J"], PARTITIONED)
    rpc = engine.coordinator.rpc
    engine.run_until(2.0)
    assert rpc.requests_for(query.id) == query.init_requests
    query.tuning.ap(1, 3)
    query.tuning.rp(2, 1)
    run_until_cond(engine, builds_ready(other, 1))
    other.tuning.ap(1, 2)
    for handle in (query, other):
        engine.run_until_done(handle, max_events=MAX_EVENTS)
        assert rpc.requests_for(handle.id) > handle.init_requests
    assert rpc.requests_for(query.id) + rpc.requests_for(other.id) == rpc.total_requests


def test_rpc_give_up_during_ap_fails_only_that_query(catalog):
    engine = slow_engine(catalog)
    victim = engine.submit(QUERIES["Q3"])
    bystander = engine.submit(QUERIES["Q3"])
    engine.run_until(2.0)
    engine.apply(Plan(events=(RpcOutage(start=2.0, stop=4.0),)))
    victim.tuning.ap(1, 2)
    engine.run_until_done(bystander, max_events=MAX_EVENTS)
    assert victim.failed
    assert [e["kind"] for e in victim.fault_history()] == ["rpc_gave_up"]
    assert bystander.succeeded and not bystander.fault_history()
    assert norm_rows(bystander.result().rows) == reference_rows(catalog, QUERIES["Q3"])
    # Nothing attached for the failed AP keeps a placement slot.
    assert all(n.task_count == 0 for n in engine.cluster.compute)


def test_task_attached_while_the_query_finishes_is_torn_down(catalog):
    """An AP whose RPCs are still in flight when the root stage finishes:
    the new task is never started and gives its placement slot back."""
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    run_until_cond(engine, lambda: query.stages[1].finished)
    assert not query.finished
    slow_rpc = RpcStorm(start=engine.now, stop=engine.now + 1.0, failure_rate=0.0, delay=60.0)
    engine.apply(Plan(events=(slow_rpc,)))
    from repro.cluster.topology import attach_tasks

    (task,) = attach_tasks(engine.coordinator.scheduler, query, query.stages[2])
    engine.run_until_done(query, max_events=MAX_EVENTS)
    engine.kernel.run(until=engine.now + 100.0)
    assert task.crashed and not task.pipelines[0].drivers
    assert all(n.task_count == 0 for n in engine.cluster.all_nodes())


# -- one implementation -----------------------------------------------------
WIRING_CALLS = re.compile(
    r"\b(add_consumer|end_consumer|add_upstream|RemoteSplit|set_group"
    r"|switch_group|end_group|requeue_for_retry)\("
)


def test_wiring_calls_occur_only_in_the_topology_module():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    allowed = {"exec/task.py", "exec/splits.py", "cluster/topology.py"}
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel in allowed or rel.startswith("buffers/"):
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if WIRING_CALLS.search(line):
                offenders.append(f"{rel}:{number}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
