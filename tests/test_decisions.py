"""The decision log (``repro.obs.decisions``): every control decision is
recorded once, and every counter, report section, fault timeline and
control instant is a view of that one list.

The goldens in ``decisions_golden.json`` were recorded at the commit
*before* the log existed, when the same numbers came from 43 hand-kept
counters and five private logs (``PYTHONPATH=src python
tests/test_decisions.py`` there, redirected into the JSON file: the
scenario half of this file uses nothing the parent lacks) — so "the
views keep their keys and values" is checked against the old code, not
against itself.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro import (
    AccordionEngine,
    EngineConfig,
    Plan,
    NodeCrash,
    QueryFailedError,
    RpcStorm,
    SpotPreemption,
    TaskCrash,
    TraceArrivals,
    TuningRejected,
    Workload,
)
from repro.config import CostModel
from repro.faults.recovery import TASK_RETRY_BUDGET
from repro.data.tpch.queries import QUERIES
from repro.sim import SimKernel

from test_autoscaler import Q_AGG, Q_FILTERED, elastic_engine

MAX_EVENTS = 5_000_000
GOLDEN = Path(__file__).with_name("decisions_golden.json")
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

JOIN_BY_DATE = (
    "select o_orderdate, count(*) as n from orders, lineitem "
    "where l_orderkey = o_orderkey group by o_orderdate order by o_orderdate"
)
JOIN_BY_PRIORITY = (
    "select o_orderpriority, count(*) as n from orders, lineitem "
    "where l_orderkey = o_orderkey group by o_orderpriority order by o_orderpriority"
)
AGG = (
    "select l_returnflag, l_linestatus, count(*), sum(l_quantity) from lineitem "
    "where l_quantity > {lit} group by l_returnflag, l_linestatus "
    "order by l_returnflag, l_linestatus"
)
NATIONS = (
    "select n_regionkey, count(*) from nation group by n_regionkey "
    "order by n_regionkey"
)


# -- the three scenarios ------------------------------------------------------
def multi_tenant(catalog, tracing: bool = False):
    """Two windows of one deadline-arbitrated mix on one engine, sharing
    and prediction on: a batch join that hogs the cluster (bid grant,
    trim, deferral), a rush join the arbiter revokes cores for, folding
    lookalikes (one detaches), a queue that times out, a queued cancel,
    and in the warm second window pre-grants, DRR placements, cache hits
    and a predicted-miss rejection."""
    config = (
        EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
        .with_cluster(compute_nodes=2)
        .with_workload(
            max_concurrent_queries=4, arbitration="deadline", queue_timeout=30.0,
        )
        .with_sharing(fold_window=0.05, cache_ttl=200.0)
        .with_prediction(max_miss_probability=0.5)
    )
    if tracing:
        config = config.with_tracing()
    engine = AccordionEngine(catalog, config=config)
    runs = []
    for _ in range(2):
        workload = Workload(engine, seed=11)
        workload.add_tenant("batch", [JOIN_BY_DATE], TraceArrivals(times=(0.0,)))
        workload.add_tenant(
            "bi", [AGG.format(lit=1), AGG.format(lit=2)],
            TraceArrivals(times=(0.5, 0.5, 0.52, 0.54, 6.0, 160.0, 161.0)),
            deadline=90.0, priority=1,
        )
        workload.add_tenant(
            "adhoc", [AGG.format(lit=3), AGG.format(lit=4), AGG.format(lit=5)],
            TraceArrivals(times=(4.0, 4.5, 20.0)), deadline=60.0,
        )
        workload.add_tenant("dash", [NATIONS], TraceArrivals(times=(10.0, 100.0, 101.0)))
        workload.add_tenant(
            "rush", [JOIN_BY_PRIORITY], TraceArrivals(times=(3.0,)),
            deadline=4.0, priority=2,
        )

        def hog(w=workload):
            tuning = w.handles[0].tuning
            knob = tuning.units()[0].knob_stage
            for target in (12, 64, 64):
                try:
                    tuning.ap(knob, target)
                except TuningRejected:
                    pass

        def cancel(tenant, state, w=workload):
            for handle in w.handles:
                if handle.tenant == tenant and handle.state == state and (
                    state == "queued" or handle.route == "folded"
                ):
                    handle.cancel("scenario")
                    return

        start = engine.now
        engine.kernel.schedule_at(start + 1.0, lambda: cancel("bi", "running"))
        engine.kernel.schedule_at(start + 2.0, hog)
        engine.kernel.schedule_at(start + 5.0, lambda: cancel("adhoc", "queued"))
        runs.append((workload, workload.run()))
    return engine, runs


def faulted(catalog):
    """Q3 under a NodeCrash, a TaskCrash and an RpcStorm (recovers), then
    on a second engine under more TaskCrashes than the retry budget
    (fails with the fault history on the raised error)."""

    def submit_under(plan):
        engine = AccordionEngine(
            catalog,
            config=EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256),
        )
        engine.apply(plan)
        return engine, engine.submit(QUERIES["Q3"])

    engine, recovered = submit_under(Plan(seed=42, events=(
        NodeCrash(at=3.5, node="compute2"),
        TaskCrash(at=1.4, stage=2),
        RpcStorm(start=0.0, stop=1e6, failure_rate=0.2),
    )))
    engine.run_until_done(recovered, max_events=MAX_EVENTS)
    crashes = tuple(
        TaskCrash(at=0.7 + 0.56 * i, stage=2)
        for i in range(TASK_RETRY_BUDGET + 3)
    )
    failing_engine, failing = submit_under(Plan(
        seed=7, events=crashes + (RpcStorm(start=0.0, stop=1e6, failure_rate=0.1),)
    ))
    with pytest.raises(QueryFailedError) as info:
        failing_engine.run_until_done(failing, max_events=MAX_EVENTS)
    return engine, recovered, failing_engine, failing, info.value


def churned(catalog, seed: int = 20250807):
    """``test_autoscaler.run_chaos``: an autoscaled spot fleet under a
    seeded churn plan plus one pinned preemption.  Returns the engine,
    the report and the workload, whose handles keep their queries'
    decisions (DESIGN.md §17)."""
    engine = elastic_engine(
        catalog, max_nodes=3, spot=True, autoscale_kwargs={"autoscale_cooldown": 0.5}
    )
    churn = Plan.random_churn(
        seed=seed, horizon=8.0, joins=1, preemptions=2, notice=0.3
    )
    engine.apply(Plan(
        seed=seed, events=churn.events + (SpotPreemption(at=6.0, notice=0.3),)
    ))
    workload = Workload(engine, seed=seed)
    workload.add_tenant("a", [Q_AGG, Q_FILTERED], TraceArrivals(times=(0.0,) * 6))
    workload.add_tenant("b", [Q_FILTERED, Q_AGG], TraceArrivals(times=(2.0,) * 4))
    return engine, workload.run(), workload


# -- what the goldens pin -----------------------------------------------------
def snapshot_of(engine) -> dict:
    """``engine.metrics.snapshot()`` minus the process-wide plan cache,
    whose traffic depends on which tests ran before."""
    snapshot = engine.metrics.snapshot()
    return {k: v for k, v in snapshot.items() if not k.startswith("plan_cache.")}


def report_counts(report) -> dict:
    """The count-valued part of ``WorkloadReport.to_dict()``."""
    full = report.to_dict()
    out = {k: full[k] for k in ("admission", "arbiter", "cluster", "sharing", "predict")}
    out["tenants"] = {
        name: {k: v for k, v in stats.items() if isinstance(v, int)}
        for name, stats in full["tenants"].items()
    }
    return out


def observe(catalog, tiny_catalog) -> dict:
    engine, ((_, first), (_, second)) = multi_tenant(catalog)
    second = report_counts(second)
    out = {
        "multi_tenant.first.render": first.render(),
        "multi_tenant.first.counts": report_counts(first),
        # The parent's second-window admission / arbiter sections were
        # engine-lifetime totals (the bug the next test pins); these
        # sections were window deltas there too.
        "multi_tenant.second.counts": {
            k: second[k] for k in ("tenants", "sharing", "predict")
        },
        "multi_tenant.snapshot": snapshot_of(engine),
    }
    engine, recovered, failing_engine, failing, error = faulted(tiny_catalog)
    out["faulted.recovered.report"] = recovered.fault_report()
    out["faulted.recovered.snapshot"] = snapshot_of(engine)
    out["faulted.failing.report"] = failing.fault_report()
    out["faulted.failing.history"] = error.fault_history
    out["faulted.failing.snapshot"] = snapshot_of(failing_engine)
    engine, report, _ = churned(catalog)
    out["churned.render"] = report.render()
    out["churned.counts"] = report_counts(report)
    out["churned.snapshot"] = snapshot_of(engine)
    return out


# -- (i) the views keep the parent's keys and values ---------------------------
@pytest.fixture(scope="module")
def observed(catalog, tiny_catalog):
    return json.loads(json.dumps(observe(catalog, tiny_catalog)))


def test_views_equal_what_the_parent_counted_by_hand(observed):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(observed) == sorted(golden)
    for name, want in golden.items():
        got = observed[name]
        if name.endswith(".snapshot"):
            # Every key the parent had, at its value; new keys may join.
            got = {k: got.get(k) for k in want}
        assert got == want, name


# -- (ii) inert and deterministic ---------------------------------------------
@pytest.fixture(scope="module")
def tenants(catalog):
    return multi_tenant(catalog)


def test_same_seed_records_the_same_decisions(catalog, tenants):
    engine, _ = tenants
    again, _ = multi_tenant(catalog)
    assert len(engine.decisions) > 100
    assert list(again.decisions) == list(engine.decisions)


def test_tracing_changes_no_decision_and_draws_each_one_once(catalog, tenants):
    from repro.obs.decisions import LANES

    plain, _ = tenants
    traced, _ = multi_tenant(catalog, tracing=True)
    assert list(traced.decisions) == list(plain.decisions)
    drawn = Counter(
        (span.start, span.kind, span.name)
        for span in traced.tracer.spans
        if span.is_instant and span.kind in set(LANES.values())
    )
    decided = Counter(
        (d.time, LANES[d.kind], f"{d.kind}:{d.outcome}"
         + ("" if d.stage is None else f" S{d.stage}"))
        for d in traced.decisions
        if LANES[d.kind] is not None
    )
    assert drawn == decided and sum(drawn.values()) > 100


# -- (iii) a handle tells its query's story in order ---------------------------
def story(handle) -> list[tuple[str, str]]:
    return [(d.kind, d.outcome) for d in handle.decisions()]


def handles_of(tenants, window: int, tenant: str):
    _, runs = tenants
    return [h for h in runs[window][0].handles if h.tenant == tenant]


def test_folded_consumer_story(tenants):
    folded = [h for h in handles_of(tenants, 0, "bi") if h.sharing.role == "folded"]
    stayed, detached = (
        [h for h in folded if h.cancelled is flag] for flag in (False, True)
    )
    assert story(stayed[0])[:3] == [
        ("admission", "queued"), ("admission", "admitted"), ("sharing", "fold"),
    ]
    fold, *served_by = stayed[0].decisions()[2:]
    assert fold.query_id == stayed[0].id and fold.inputs["pages_saved"] > 0
    # What follows was decided about the execution it rides.
    assert {d.query_id for d in served_by} == {stayed[0].execution.id}
    carrier = next(
        h for h in handles_of(tenants, 0, "bi") if h.id == fold.inputs["lead"]
    )
    assert ("sharing", "carrier") in story(carrier)
    assert story(detached[0])[-2:] == [("sharing", "fold"), ("sharing", "detach")]


def test_cached_answer_story(tenants):
    cached = [h for h in handles_of(tenants, 1, "dash") if h.sharing.cache_hit]
    assert cached
    assert story(cached[0])[-2:] == [("admission", "admitted"), ("sharing", "cache_hit")]
    assert ("admission", "queued") in story(cached[0])


def test_rejected_submission_stories(tenants):
    timed_out = next(h for h in handles_of(tenants, 0, "dash") if h.state == "rejected")
    assert story(timed_out) == [("admission", "queued"), ("admission", "rejected")]
    assert timed_out.decisions()[-1].reason == "queue-timeout"
    (missed,) = handles_of(tenants, 1, "rush")
    assert story(missed) == [
        ("predict", "served"), ("predict", "slo_reject"), ("admission", "rejected"),
    ]
    slo, rejected = missed.decisions()[1:]
    assert rejected.reason == "predicted-miss" and rejected.tenant == "rush"
    assert slo.inputs["miss_probability"] > 0.5
    cancelled = next(
        h for h in handles_of(tenants, 0, "adhoc")
        if h.cancelled and h.execution is None
    )
    assert story(cancelled) == [
        ("admission", "queued"), ("admission", "cancelled_queued"),
    ]


def test_arbitrated_query_story(tenants):
    (batch,) = handles_of(tenants, 0, "batch")
    bids = [d for d in batch.decisions() if d.kind == "bid"]
    assert [d.outcome for d in bids] == ["trim", "defer", "defer"]
    assert bids[0].inputs["current"] < bids[0].inputs["granted"] < 12
    assert bids[0].inputs["requested"] == 12 and bids[0].tenant == "batch"
    assert ("revoke", "applied") in story(batch)
    (rush,) = handles_of(tenants, 0, "rush")
    assert ("deadline_grant", "applied") in story(rush)
    revoke = next(d for d in batch.decisions() if d.kind == "revoke")
    assert revoke.inputs["for_query"] == rush.execution.id


def test_crashed_and_respawned_query_story(tiny_catalog):
    engine, recovered, _, failing, error = faulted(tiny_catalog)
    assert story(recovered) == [
        ("inject", "task_crash"), ("recovery", "respawn"),
        ("fault", "node_down"), ("recovery", "respawn"),
    ]
    modes = [d.inputs["mode"] for d in recovered.decisions() if d.kind == "recovery"]
    assert modes == ["resume", "restart"]
    assert story(failing)[-1] == ("recovery", "unrecoverable")
    # The error carries the same story in the shape it always had.
    assert [e["kind"] for e in error.fault_history] == [
        d.outcome for d in failing.decisions()
    ]
    # The injected node crash is a fleet-level decision: in the engine's
    # stream, in no query's.
    assert engine.decisions.count("inject", "node_crash") == 1


def test_counts_from_a_mark_are_exact_whatever_was_freed(monkeypatch):
    """Counts and tallies from a :meth:`DecisionLog.mark` come from the
    counters, so decisions that left the ring of unowned ones (or with
    their query's handle) still count, and a fleet-level injection stays
    listed for the fault report.  A bare position carries no counters."""
    from repro.obs import decisions

    monkeypatch.setattr(decisions, "FLEET_DECISIONS", 1)
    log = SimKernel().decisions
    log.record("cache", "evict")
    mark = log.mark()
    log.record("inject", "node_crash", node="compute1", reason="compute1")
    for pages in (3, 4):
        log.record("sharing", "cache_hit", pages_saved=pages)
    for _ in range(3):
        log.record("cache", "evict")
    assert len(list(log)) == 2  # the injection and the newest eviction
    assert log.counts(mark) == Counter({
        ("cache", "evict"): 3, ("sharing", "cache_hit"): 2,
        ("inject", "node_crash"): 1,
    })
    assert log.tally("sharing", since=mark) == 7
    assert log.counts()["cache", "evict"] == 4
    assert [d.outcome for d in log.of(kind="inject")] == ["node_crash"]
    with pytest.raises(TypeError, match="mark"):
        log.counts(len(log) - 1)


def scanned(log, since=0, **where):
    """``DecisionLog.of`` as a scan over the whole log (a mark counts
    every decision ever recorded: a position in ``list(log)`` while the
    log holds them all)."""
    return [
        d for d in list(log)[since:]
        if all(getattr(d, k) == v for k, v in where.items())
    ]


def scanned_story(engine, handle):
    """``QueryHandle.decisions`` as a scan over the engine's whole log."""
    ids = {handle.id, handle.execution.id if handle.execution else None}
    end = handle.finished_at if handle.finished else float("inf")
    return [
        d for d in engine.decisions
        if d.time <= end and (
            d.query_id in ids if d.query_id is not None
            else handle.seq and d.inputs.get("seq") == handle.seq
        )
    ]


def test_indexed_reads_equal_a_scan_of_the_whole_log(catalog, tiny_catalog, tenants):
    """``of(query_id=…)`` / ``of(kind=…)``, ``handle.decisions()`` and the
    views on them visit one query's or one kind's entries, and answer the
    lists a scan of the whole log did, on the three golden scenarios."""
    engine, runs = tenants
    recovered_engine, recovered, failing_engine, failing, _ = faulted(tiny_catalog)
    churned_engine, _, churned_workload = churned(catalog)
    cases = [
        (engine, [h for workload, _ in runs for h in workload.handles]),
        (recovered_engine, [recovered]),
        (failing_engine, [failing]),
        (churned_engine, churned_workload.handles),
    ]
    for target, handles in cases:
        log = target.decisions
        assert len(list(log)) == len(log)  # every handle held: nothing freed
        query_ids = {d.query_id for d in log} | {-1}
        kinds = {d.kind for d in log} | {"unknown"}
        for since in (0, len(log) // 3, len(log) - 1, len(log)):
            for query_id in query_ids:
                assert log.of(since, query_id=query_id) == scanned(
                    log, since, query_id=query_id
                )
            for kind in kinds:
                assert log.of(since, kind=kind) == scanned(log, since, kind=kind)
                assert log.of(since, kind=kind, outcome="applied") == scanned(
                    log, since, kind=kind, outcome="applied"
                )
        for query_id in query_ids:
            for kind in kinds:
                assert log.of(kind=kind, query_id=query_id) == scanned(
                    log, kind=kind, query_id=query_id
                )
        for handle in handles:
            assert handle.decisions() == scanned_story(target, handle)


# -- (iv) source lint: nothing is written down twice ---------------------------
#: The 43 hand-kept counter attributes the log replaced.
DELETED_COUNTERS = {
    "submitted", "admitted", "rejected", "timeouts", "cancelled_queued",
    "grants", "trims", "deferrals", "revocations",
    "scale_outs", "scale_ins", "joins", "drains_started", "drains_clean",
    "drains_escalated", "preemption_notices", "preemptions",
    "node_failures", "tasks_crashed", "tasks_respawned", "tasks_resumed",
    "tasks_restarted", "queries_failed",
    "_folds", "_cache_hits", "_cache_misses", "_pages_saved",
    "carriers", "unshared", "consumers", "detaches",
    "hits", "misses", "evictions", "expirations", "invalidations",
    "skipped_oversize",
    "recorded", "predictions_served", "pregrants", "reprovisions",
    "slo_rejections", "drr_placements",
}


def test_control_decisions_are_recorded_in_one_place():
    assert len(DELETED_COUNTERS) == 43
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        source = path.read_text()
        if "tracer.instant(" in source and not rel.startswith(("obs/", "buffers/")):
            offenders.append(f"{rel}: tracer.instant( outside DecisionLog.record")
        if "def stats(" in source and rel != "exec/memory.py":
            offenders.append(f"{rel}: a stats() dict")
        for node in ast.walk(ast.parse(source)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else []
            )
            for target in targets:
                counted = isinstance(node, ast.AugAssign) or (
                    # ``self.x = 0`` / ``self._x = metrics.counter(...)``
                    isinstance(node.value, (ast.Constant, ast.Call))
                )
                if (
                    counted
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in DELETED_COUNTERS
                ):
                    offenders.append(f"{rel}:{node.lineno}: self.{target.attr}")
    assert not offenders, "\n".join(offenders)
    # Exactly one instant call serves every control decision.
    assert (SRC / "obs" / "decisions.py").read_text().count("tracer.instant(") == 1


if __name__ == "__main__":  # record the goldens (run this at the parent)
    from repro.data import Catalog

    print(json.dumps(
        observe(Catalog.tpch(scale=0.005, seed=777), Catalog.tpch(scale=0.001, seed=777)),
        indent=1,
    ))
