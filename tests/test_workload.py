"""Tests for the multi-tenant workload layer: admission policies
(property-based), sessions, the resource arbiter, and the workload
runner's determinism and bit-identity guarantees."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccordionEngine,
    ClosedLoop,
    EngineConfig,
    Plan,
    PoissonArrivals,
    QueryOptions,
    QueryRejectedError,
    RpcStorm,
    TPCH_QUERIES as QUERIES,
    TraceArrivals,
    Workload,
)
from repro.cluster.membership import COST_PER_NODE_SECOND
from repro.config import CostModel
from repro.errors import ExecutionError
from repro.workload.policies import (
    effective_priority,
    fair_share_budget,
    grantable_units,
    jain_fairness,
    pick_next,
)

from conftest import slow_engine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from soak import CONFIG as SOAK_CONFIG, run_window  # noqa: E402

REPORT_GOLDEN = Path(__file__).with_name("workload_report_golden.json")


class Entry:
    """Minimal pending-queue entry for the pure policy functions."""

    def __init__(self, seq, priority, submitted_at):
        self.seq = seq
        self.priority = priority
        self.submitted_at = submitted_at

    def __repr__(self):
        return f"Entry(seq={self.seq}, p={self.priority}, t={self.submitted_at})"


def workload_engine(
    catalog, multiplier=1.0, cluster=None, tracing=False, **workload_kwargs
):
    config = EngineConfig(cost=CostModel().scaled(multiplier), page_row_limit=256)
    if tracing:
        config = config.with_tracing()
    if cluster:
        config = config.with_cluster(**cluster)
    if workload_kwargs:
        config = config.with_workload(**workload_kwargs)
    return AccordionEngine(catalog, config=config)


# -- pure policy properties ---------------------------------------------------
@given(st.lists(st.floats(0, 10), min_size=1, max_size=20))
def test_fifo_ignores_priority(priorities):
    pending = [Entry(i, p, float(i)) for i, p in enumerate(priorities)]
    head = pick_next(pending, "fifo", aging_rate=0.0, now=100.0)
    assert head.seq == 0


@given(
    st.lists(st.floats(0, 10), min_size=2, max_size=20),
    st.floats(0, 1000),
)
def test_priority_picks_max_effective_priority(priorities, now):
    pending = [Entry(i, p, float(i)) for i, p in enumerate(priorities)]
    head = pick_next(pending, "priority", aging_rate=0.5, now=now)
    best = max(
        effective_priority(e.priority, e.submitted_at, now, 0.5) for e in pending
    )
    assert effective_priority(head.priority, head.submitted_at, now, 0.5) == best


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 10), min_size=1, max_size=60))
def test_priority_aging_prevents_starvation(adversary_priorities):
    """A priority-0 entry at the head of an adversarial stream of
    high-priority arrivals is served within (p_max / rate) + 2 services
    once aging is on — the formal no-starvation property."""
    rate = 1.0
    victim = Entry(0, 0.0, 0.0)
    pending = [victim]
    served_at = None
    now = 0.0
    for step, p in enumerate(adversary_priorities):
        now = float(step)
        pending.append(Entry(step + 1, p, now))  # arrival, then one service
        head = pick_next(pending, "priority", rate, now)
        pending.remove(head)
        if head is victim:
            served_at = now
            break
    while served_at is None:  # arrivals stopped; drain the backlog
        now += 1.0
        head = pick_next(pending, "priority", rate, now)
        pending.remove(head)
        if head is victim:
            served_at = now
    assert served_at <= 10.0 / rate + 2


def test_priority_without_aging_can_starve():
    """The same adversarial stream starves the victim when aging is off —
    the property above is really the aging at work."""
    victim = Entry(0, 0.0, 0.0)
    pending = [victim]
    for step in range(50):
        pending.append(Entry(step + 1, 10.0, float(step)))
        head = pick_next(pending, "priority", 0.0, float(step))
        assert head is not victim
        pending.remove(head)


@given(st.integers(1, 512), st.integers(1, 16))
def test_fair_share_budget_within_epsilon(capacity, tenants):
    budget = fair_share_budget(capacity, tenants)
    assert budget >= 1
    # Within one core of the exact fair share (integer floor).
    assert abs(budget - capacity / tenants) < 1 or budget == 1


@given(
    st.integers(0, 64),
    st.integers(1, 8),
    st.integers(-16, 128),
    st.one_of(st.none(), st.integers(-16, 128)),
)
def test_grantable_units_bounds(requested, per_unit, free, headroom):
    units = grantable_units(requested, per_unit, free, headroom)
    assert 0 <= units <= requested
    assert units * per_unit <= max(0, free)
    if headroom is not None:
        assert units * per_unit <= max(0, headroom)


@given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=12))
def test_jain_fairness_bounds(values):
    index = jain_fairness(values)
    assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


def test_jain_fairness_extremes():
    assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_fairness([9.0, 0.0, 0.0]) == pytest.approx(1.0)  # zeros dropped
    assert jain_fairness([1.0, 1.0, 1.0, 97.0]) < 0.5
    assert jain_fairness([]) == 1.0


# -- admission control --------------------------------------------------------
COUNT_SQL = "select count(*) from orders"


def test_admission_caps_concurrency(catalog):
    engine = workload_engine(catalog, max_concurrent_queries=1)
    session = engine.session("bi")
    handles = [session.submit(COUNT_SQL) for _ in range(3)]
    assert [h.state for h in handles] == ["running", "queued", "queued"]
    assert session.queue_depth == 2
    # A queued handle is inspectable, not a trap: no execution yet.
    assert repr(handles[1]) == "QueryHandle(id=None, state=queued)"
    assert handles[1].progress() == {} and handles[1].execution is None
    rows = [h.result().rows for h in handles]
    assert rows[0] == rows[1] == rows[2]
    admission = engine.workload.admission
    assert admission.violations == []
    assert engine.metrics.snapshot()["workload.admitted"] == 3
    assert engine.metrics.snapshot()["workload.queue_depth"] == 0
    # FIFO: the handles were admitted in submission order.
    ids = [h.id for h in handles]
    assert ids == sorted(ids)


@pytest.mark.parametrize(
    "field, value",
    [("arbitration", "fairshare"), ("arbitration", "strict_priority"), ("queue_policy", "lifo")],
)
def test_unknown_policy_names_are_rejected_not_defaulted(catalog, field, value):
    """Policies are compared against literals: a misspelt (or retired) one
    used to arbitrate silently as ``"none"`` / queue as ``"fifo"``."""
    engine = workload_engine(catalog, **{field: value})
    with pytest.raises(ExecutionError, match=f"WorkloadConfig.{field}='{value}'"):
        engine.session("bi")


def test_priority_queue_admits_high_priority_first(catalog):
    engine = workload_engine(
        catalog, max_concurrent_queries=1, queue_policy="priority"
    )
    low = engine.session("low", priority=0.0)
    high = engine.session("high", priority=5.0)
    first = low.submit(COUNT_SQL)  # admitted immediately (capacity free)
    queued_low = low.submit(COUNT_SQL)
    queued_high = high.submit(COUNT_SQL)
    for handle in (first, queued_low, queued_high):
        handle.result()
    # Query ids are assigned at admission, so id order is admission order.
    order = [
        h.tenant
        for h in sorted((first, queued_low, queued_high), key=lambda h: h.id)
    ]
    assert order == ["low", "high", "low"]
    assert engine.workload.admission.violations == []


def test_queue_timeout_rejects_with_structured_error(catalog):
    engine = workload_engine(
        catalog, max_concurrent_queries=1, queue_timeout=0.001, multiplier=100.0
    )
    session = engine.session("etl")
    running = session.submit(QUERIES["Q3"])
    stuck = session.submit(COUNT_SQL)
    running.result()
    assert stuck.wait(timeout=0.0) is True  # already terminal
    assert stuck.state == "rejected"
    with pytest.raises(QueryRejectedError) as info:
        stuck.result()
    assert info.value.tenant == "etl"
    assert info.value.reason == "queue-timeout"
    assert info.value.queued_seconds >= 0.001
    assert engine.metrics.snapshot()["workload.timeouts"] == 1


def test_cancel_queued_submission(catalog):
    engine = workload_engine(catalog, max_concurrent_queries=1)
    session = engine.session("adhoc")
    running = session.submit(COUNT_SQL)
    queued = session.submit(COUNT_SQL)
    # The queue holds the handle itself, not a copy of it.
    assert engine.workload.admission.queue[0] is queued
    queued.cancel("user closed the tab")
    assert queued.state == "cancelled"
    assert queued.finished and queued.execution is None
    assert running.result().num_rows == 1
    stats = engine.metrics.snapshot()
    assert stats["workload.cancelled_queued"] == 1 and stats["workload.admitted"] == 1


def test_session_execute_and_records(catalog):
    engine = workload_engine(catalog)
    session = engine.session("bi")
    assert session.execute(COUNT_SQL).num_rows == 1
    handle = session.submit(COUNT_SQL)
    assert handle.result().num_rows == 1
    assert handle.tenant == "bi"
    assert handle.state == "finished"
    assert handle.queue_seconds == 0.0
    assert handle.latency is not None and handle.latency > 0


# -- the workload runner ------------------------------------------------------
def test_four_tenant_workload_bit_identical_to_isolated(catalog):
    """Answers from a genuinely interleaved 4-tenant workload (Poisson
    arrivals, one deadline tenant) are bit-identical to isolated runs."""
    mixes = {
        "etl": [QUERIES["Q1"]],
        "bi": [QUERIES["Q6"], QUERIES["Q14"]],
        "adhoc": [QUERIES["Q3"]],
        "rush": [QUERIES["Q6"]],
    }
    engine = workload_engine(catalog, max_concurrent_queries=3)
    workload = Workload(engine, seed=42)
    workload.add_tenant("etl", mixes["etl"], PoissonArrivals(rate=2.0, count=2))
    workload.add_tenant("bi", mixes["bi"], ClosedLoop(count=3, think_time=0.1))
    workload.add_tenant("adhoc", mixes["adhoc"], TraceArrivals((0.0, 0.5)))
    workload.add_tenant(
        "rush", mixes["rush"], PoissonArrivals(rate=1.0, count=2), deadline=1e6
    )
    report = workload.run()

    # Every submission completed, none rejected, no policy violations.
    assert sum(s.completed for s in report.tenants.values()) == 9
    assert report.violations == []
    assert 0.0 < report.fairness <= 1.0
    assert report.tenants["rush"].deadline_total == 2
    assert report.tenants["rush"].deadline_met == 2

    # Bit-identity: exact row lists (values *and* order), not normalized.
    isolated = AccordionEngine(
        catalog, config=EngineConfig(page_row_limit=256)
    )
    expected = {sql: isolated.execute(sql).rows for m in mixes.values() for sql in m}
    assert len(workload.handles) == 9
    for handle in workload.handles:
        assert handle.result().rows == expected[handle.sql]


def _same_seed_report(catalog, seed):
    engine = workload_engine(catalog, max_concurrent_queries=2)
    workload = Workload(engine, seed=seed)
    workload.add_tenant("a", [QUERIES["Q6"]], PoissonArrivals(rate=1.5, count=3))
    workload.add_tenant("b", [QUERIES["Q14"]], ClosedLoop(count=2))
    return workload.run()


def test_report_byte_identical_across_same_seed_runs(catalog):
    first = _same_seed_report(catalog, seed=11)
    second = _same_seed_report(catalog, seed=11)
    assert first.render() == second.render()
    assert first.to_dict() == second.to_dict()
    # A different seed moves the Poisson arrivals (sanity: seed matters).
    third = _same_seed_report(catalog, seed=12)
    assert third.to_dict()["horizon"] != first.to_dict()["horizon"]


def test_second_window_report_counts_only_its_own_window(catalog):
    """A long-lived engine serving window after window: every count in a
    report is that window's, so the sections agree with each other.  (The
    admission and arbiter sections used to be engine-lifetime totals
    beside per-window tenant rows: 14 submitted next to a table of 7.)"""
    engine = workload_engine(
        catalog, multiplier=1000.0, cluster={"compute_nodes": 2},
        max_concurrent_queries=3, arbitration="fair_share",
    )
    windows, workloads = [], []  # a query's decisions live with its handle
    for _ in range(2):
        workload = Workload(engine, seed=5)
        workloads.append(workload)
        workload.add_tenant("etl", [JOIN_COUNT_SQL], TraceArrivals(times=(0.0,)))
        workload.add_tenant(
            "bi", [QUERIES["Q6"], COUNT_SQL], PoissonArrivals(rate=0.5, count=6)
        )

        def widen(w=workload):
            tuning = w.handles[0].tuning
            tuning.ap(tuning.units()[0].knob_stage, 16)  # trimmed to fair share

        start = engine.now
        engine.kernel.schedule_at(start + 2.0, widen)
        windows.append((start, workload.run()))
    for _, report in windows:
        submitted = sum(t.submitted for t in report.tenants.values())
        assert submitted == 7 == report.admission["submitted"]
        assert report.admission["admitted"] == 7
        assert report.admission["queue_depth"] == 0  # a point-in-time read
        assert report.arbiter["trims"] == 1
        assert "admitted=7 rejected=0" in report.render()
    # The arbiter section counts exactly the bids recorded in its window ...
    for (start, report), end in zip(windows, (windows[1][0], engine.now)):
        bids = [d.outcome for d in engine.decisions.of(kind="bid") if start <= d.time < end]
        assert report.arbiter["grants"] == bids.count("grant")
        assert report.arbiter["trims"] == bids.count("trim")
        assert report.arbiter["deferrals"] == bids.count("defer")
    # ... and the engine-lifetime totals are still in the metrics registry.
    assert engine.metrics.snapshot()["workload.submitted"] == 14
    assert engine.metrics.snapshot()["arbiter.trims"] == 2


# -- resource arbitration -----------------------------------------------------
JOIN_COUNT_SQL = (
    "select o_orderdate, count(*) as n from orders, lineitem "
    "where l_orderkey = o_orderkey group by o_orderdate order by o_orderdate"
)


def test_arbiter_trims_bid_to_fair_share(catalog):
    engine = workload_engine(
        catalog,
        multiplier=1000.0,
        cluster={"compute_nodes": 2},  # 16 cores
        arbitration="fair_share",
    )
    a = engine.session("a").submit(JOIN_COUNT_SQL)
    b = engine.session("b").submit(JOIN_COUNT_SQL)
    engine.run_for(2.0)
    arbiter = engine.workload.arbiter
    assert arbiter.capacity == 16
    knob = a.tuning.units()[0].knob_stage
    # Ask for far more than one tenant's fair share; the arbiter trims.
    a.tuning.ap(knob, 16)
    assert a.execution.stage(knob).stage_dop < 16
    bids = engine.decisions.of(kind="bid")
    assert {bid.outcome for bid in bids} & {"trim", "defer"}
    for bid in bids:
        assert bid.inputs["granted"] <= bid.inputs["requested"]
    a.result()
    b.result()


def test_arbiter_defers_when_cluster_is_full(catalog):
    engine = workload_engine(
        catalog,
        multiplier=1000.0,
        cluster={"compute_nodes": 1},  # 8 cores
        arbitration="none",
    )
    a = engine.session("a").submit(JOIN_COUNT_SQL)
    b = engine.session("b").submit(JOIN_COUNT_SQL)
    engine.run_for(2.0)
    arbiter = engine.workload.arbiter
    assert arbiter.cluster_usage() >= arbiter.capacity - 1
    knob = a.tuning.units()[0].knob_stage
    from repro.errors import TuningRejected

    with pytest.raises(TuningRejected, match="arbiter"):
        a.tuning.ap(knob, 8)
    assert engine.decisions.count("bid", "defer") >= 1
    a.result()
    b.result()


def test_deadline_rebalance_revokes_cores_and_answers_stay_exact(catalog):
    """The acceptance scenario's core mechanism: a deadline-endangered
    query triggers a Section 4.4 end-signal revocation of another
    tenant's over-baseline cores, and every answer stays bit-identical
    to isolated runs."""
    engine = workload_engine(
        catalog,
        multiplier=1000.0,
        cluster={"compute_nodes": 2},  # 16 cores
        tracing=True,  # inert: only records the arbiter's instants
        arbitration="deadline",
    )
    batch = engine.session("batch").submit(JOIN_COUNT_SQL)
    engine.run_for(2.0)
    knob = batch.tuning.units()[0].knob_stage
    batch.tuning.ap(knob, 12)  # hog the cluster (over baseline)
    assert batch.execution.stage(knob).stage_dop > 1
    engine.run_for(1.0)

    rush = engine.session("rush", deadline=4.0).submit(JOIN_COUNT_SQL)
    rush_rows = rush.result().rows
    batch_rows = batch.result().rows

    stats = engine.metrics.snapshot()
    assert stats["arbiter.revocations"] >= 1, "deadline rebalance never revoked"
    assert (batch.seq, rush.seq) == (1, 2)
    # Every revocation and deadline grant leaves its trace instant
    # (DESIGN "Observability"), attributed to the query it acted on.
    instants = engine.kernel.tracer.spans_of("workload")
    revokes = [s for s in instants if s.name.startswith("revoke:applied S")]
    grants = [s for s in instants if s.name.startswith("deadline_grant:applied S")]
    assert len(revokes) == stats["arbiter.revocations"]
    assert {s.meta["query_id"] for s in revokes} == {batch.id}
    assert grants and {s.meta["query_id"] for s in grants} == {rush.id}
    bids = [s for s in instants if s.name.startswith("bid:grant S")]
    assert len(grants) + len(bids) == stats["arbiter.grants"]

    isolated = AccordionEngine(
        catalog, config=EngineConfig(page_row_limit=256)
    )
    expected = isolated.execute(JOIN_COUNT_SQL).rows
    assert rush_rows == expected
    assert batch_rows == expected


# -- what a terminal submission leaves behind ---------------------------------
def stormy_windows(catalog) -> dict:
    """Three ``tools/soak.py`` windows on one engine through an RPC storm
    that fails 9 of the 72 queries: each window's rendered report, and
    ``(query_id, tenant, state, latency, queue_seconds)`` of every
    submission, from the handles in submission order."""
    engine = AccordionEngine(catalog, config=SOAK_CONFIG)
    engine.apply(Plan(seed=5, events=(
        RpcStorm(start=2.0, stop=12.0, failure_rate=0.5),
    )))
    reports, handles = [], []
    for window in (1, 2, 3):
        report, window_handles = run_window(engine, seed=window)
        reports.append(report.render())
        handles += window_handles
    records = [
        [h.id, h.tenant, h.state, h.latency, h.queue_seconds] for h in handles
    ]
    return {"reports": reports, "records": records}


def test_frozen_records_report_what_live_submissions_did(catalog):
    """The golden was recorded while the workload layer still held the
    live submissions in a table of its own (``PYTHONPATH=src python
    tests/test_workload.py > tests/workload_report_golden.json`` on that
    ``src``, with this file and ``tools/soak.py``): the reports, and the
    records read from the terminal handles, read the same byte for
    byte."""
    observed = stormy_windows(catalog)
    assert json.dumps(observed, indent=1) + "\n" == REPORT_GOLDEN.read_text()


def test_report_node_seconds_cover_the_run_window(catalog):
    """A report's node-seconds cover its own window, as its cost does:
    on on-demand nodes at COST_PER_NODE_SECOND they are one figure, the
    fleet times the window, however long the engine ran before."""
    engine = workload_engine(catalog)
    for seed in (1, 2):
        start = engine.now
        workload = Workload(engine, seed=seed)
        workload.add_tenant("bi", [COUNT_SQL], PoissonArrivals(rate=2.0, count=3))
        cluster = workload.run().cluster
        fleet = len(engine.cluster.compute) * (engine.now - start)
        assert cluster["node_seconds"] == pytest.approx(fleet)
        assert cluster["cost_dollars"] == pytest.approx(fleet * COST_PER_NODE_SECOND)


if __name__ == "__main__":  # record the golden
    from repro.data import Catalog

    print(json.dumps(stormy_windows(Catalog.tpch(scale=0.005, seed=777)), indent=1))
