"""Retirement (DESIGN.md §17): a finished execution keeps its answer and
its counters, not its pages, and the engine keeps only a record of it.

Once a query is terminal and none of its tasks runs, holds a core or has
a fetch in flight, every task drops its output buffer's queues, caches
and lineage, its exchange and local-exchange pages, its hash tables and
its operators; then ``engine.coordinator.queries`` swaps the execution
for its :class:`~repro.cluster.QueryRecord`.  Only the handles the test
holds still reach an execution, so these tests walk the object graph
from them and find no data page but each execution's result pages, and
check that a retired query's handle answers exactly what it answered the
moment it ended.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    AccordionEngine,
    EngineConfig,
    MemoryConfig,
    Plan,
    QueryFailedError,
    QueryOptions,
    TaskCrash,
    TuningRejected,
)
from repro.cluster import Cluster, Coordinator, QueryExecution
from repro.cluster.node import Node
from repro.data import Catalog
from repro.data.tpch.queries import QUERIES
from repro.exec.task import Task
from repro.faults.recovery import TASK_RETRY_BUDGET
from repro.obs import DecisionLog, MetricsRegistry, Tracer
from repro.pages import Page
from repro.sharing import SharingManager
from repro.sim import SimKernel
from repro.util import RETAINED_QUERIES, RetiredRing
from repro.workload.session import WorkloadManager
from repro.workload.arbiter import ResourceArbiter

from conftest import (
    assert_only_records, builds_ready, make_engine, reachable, run_until_cond,
    slow_engine,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from soak import CONFIG as SOAK_CONFIG, run_window  # noqa: E402

#: Engine-wide objects: what lives beyond any one execution is not the
#: execution's to hold (the result cache, the fleet, the event queue).
ENGINE_WIDE = (
    AccordionEngine, SimKernel, Cluster, Node, Catalog, Coordinator,
    WorkloadManager, ResourceArbiter, SharingManager, Tracer, DecisionLog,
    MetricsRegistry,
)


def stray_pages(roots: list) -> list[Page]:
    """Data pages reachable from the executions ``roots`` (what the
    test's handles hold) other than each one's ``result_pages``, without
    passing through an engine-wide object."""
    allowed = {id(p) for q in roots for p in q.result_pages}
    return [
        page for page in reachable(roots, Page, skip=(np.ndarray, *ENGINE_WIDE))
        if not page.is_end and id(page) not in allowed
    ]


def assert_retired(engine, held: list) -> None:
    """No query runs, the engine keeps only records, and each execution
    the test ``held`` is sealed and holds no page but its answer."""
    assert not engine.coordinator.running
    assert_only_records(engine)
    assert stray_pages(held) == []
    for query in held:
        for stage in query.stages.values():
            assert all(task.sealed for task in stage.tasks), query.describe()


# -- (i) no page outlives its query -------------------------------------------
def test_every_tpch_text_leaves_only_its_answer(catalog):
    engine = make_engine(catalog)
    results = [engine.execute(sql) for sql in QUERIES.values()]
    assert len(engine.coordinator.queries) == len(QUERIES)
    assert_retired(engine, [result.query for result in results])


def test_a_query_cancelled_mid_flight_drains_then_retires(catalog):
    engine = slow_engine(catalog)
    handle = engine.submit(QUERIES["Q5"])
    engine.run_for(3.0)
    assert not handle.finished
    handle.cancel("test")
    # The end signals still have to drain: nothing is dropped under a
    # running driver or a fetch in flight.
    tasks = [t for s in handle.execution.stages.values() for t in s.tasks]
    assert not any(t.sealed for t in tasks)
    run_until_cond(engine, lambda: all(t.sealed for t in tasks))
    assert handle.cancelled
    assert_retired(engine, [handle.execution])


def test_a_query_failed_by_its_retry_budget_retires(tiny_catalog):
    engine = slow_engine(tiny_catalog)
    engine.apply(Plan(events=tuple(
        TaskCrash(at=0.7 + 0.56 * i, stage=2) for i in range(TASK_RETRY_BUDGET + 3)
    )))
    handle = engine.submit(QUERIES["Q3"])
    with pytest.raises(QueryFailedError, match="retry budget"):
        engine.run_until_done(handle, max_events=5_000_000)
    engine.kernel.run(max_events=5_000_000)
    assert_retired(engine, [handle.execution])


def test_a_switched_partitioned_join_retires(catalog):
    engine = slow_engine(catalog)
    handle = engine.submit(
        QUERIES["Q2J"],
        QueryOptions(join_distribution="partitioned", initial_stage_dop=3),
    )
    tuning = handle.tuning
    run_until_cond(engine, builds_ready(handle, 1))
    tuning.rp(1, 1)
    run_until_cond(engine, builds_ready(handle, 1))
    tuning.ap(1, 3)
    handle.result()
    assert len(handle.stages[1].task_groups) == 3
    assert_retired(engine, [handle.execution])


def test_a_spilling_query_retires(catalog, tmp_path):
    engine = make_engine(
        catalog,
        memory=MemoryConfig(query_budget_bytes=65_536, spill_dir=str(tmp_path)),
    )
    result = engine.execute(QUERIES["Q18"])
    assert engine.metrics.counter("spill.spills").value >= 1
    assert_retired(engine, [result.query])


def test_a_fold_carrier_and_its_folded_consumer_retire(catalog):
    engine = AccordionEngine(catalog, config=EngineConfig().with_sharing())
    sql = "select l_returnflag, count(*) from lineitem group by l_returnflag"
    carrier, folded = engine.submit_many([sql, sql])
    assert folded.sharing.role == "folded"
    assert folded.result().rows == carrier.result().rows
    assert_retired(engine, [carrier.execution, folded.execution])


def test_a_sealed_exchange_client_has_no_fetch_in_flight(catalog):
    """Sealing keeps a finished client's split keys with no state
    behind them; asking such a client whether it fetches used to raise
    ``AttributeError``."""
    engine = make_engine(catalog)
    result = engine.execute(QUERIES["Q3"])
    clients = [
        client
        for stage in result.query.stages.values()
        for task in stage.tasks
        for client in task.exchange_clients.values()
    ]
    assert any(client.splits for client in clients)
    assert all(task.sealed for s in result.query.stages.values() for task in s.tasks)
    assert [client.fetching for client in clients] == [False] * len(clients)


# -- (ii) a retired query answers as it did when it ended ---------------------
def answers(handle) -> dict:
    execution = handle.execution
    stages = execution.stages.values()
    return {
        "rows": handle.result().rows if handle.succeeded else handle.state,
        "describe": handle.describe(),
        "progress": handle.progress(),
        "decisions": handle.decisions(),
        "fault_report": handle.fault_report(),
        "samples": [
            (s.time, s.stages) for s in execution.tracker.samples
        ],
        "stages": [
            (
                stage.sample(), stage.cpu_seconds(), stage.quanta(),
                stage.bytes_out(), stage.peak_tracked_bytes(),
                stage.time_window(),
                [c.finished for t in stage.tasks for c in t.exchange_clients.values()],
            )
            for stage in stages
        ],
        "memory": execution.memory.stats(),
    }


def retired(catalog, ending: str) -> dict:
    """Q3 run to its end and drained; what its handle answers then."""
    engine = slow_engine(catalog)
    if ending == "failed":
        engine.apply(Plan(events=tuple(
            TaskCrash(at=0.7 + 0.56 * i, stage=2) for i in range(6)
        )))
    handle = engine.submit(QUERIES["Q3"])
    if ending == "cancelled":
        engine.run_for(3.0)
        handle.cancel("test")
    engine.kernel.run(max_events=5_000_000)
    assert handle.state == ending
    with pytest.raises(TuningRejected):
        handle.tuning.ap(1, 4)
    tasks = [t for s in handle.stages.values() for t in s.tasks]
    return {
        **answers(handle), "sealed": {t.sealed for t in tasks},
        "clock": (engine.now, engine.kernel.events_processed),
    }, tasks


@pytest.mark.parametrize("ending", ["finished", "cancelled", "failed"])
def test_a_retired_handle_answers_as_an_unsealed_one(catalog, monkeypatch, ending):
    """Sealing is passive: the same run with ``Task.seal`` a no-op answers
    the same, at the same virtual instant and event count."""
    with_seal, _ = retired(catalog, ending)
    monkeypatch.setattr(Task, "seal", lambda task: None)
    without, tasks = retired(catalog, ending)
    monkeypatch.undo()
    assert (with_seal.pop("sealed"), without.pop("sealed")) == ({True}, {False})
    assert with_seal == without
    for task in tasks:  # retire the unsealed run like any other
        task.seal()


# -- (iii) a long-lived engine stays flat --------------------------------------
@pytest.fixture
def small_bounds(monkeypatch):
    """Every bounded structure an engine keeps across queries at one
    entry: the rings of retired queries and of fleet decisions, the
    front-end (plans included), compile and result caches.  They fill in a window, so a
    window more shows only what grows with the queries served."""
    from repro import util
    from repro.obs import decisions
    from repro.plan import cache
    from repro.sharing import cache as results
    from repro.sql import compiler

    for module, name in (
        (util, "RETAINED_QUERIES"), (decisions, "FLEET_DECISIONS"),
        (cache, "_PER_CATALOG_LIMIT"), (results, "RESULT_CACHE_SWEEP"),
    ):
        monkeypatch.setattr(module, name, 1)
    for memo in (compiler._EXPR_CACHE, compiler._LIST_CACHE):
        monkeypatch.setattr(memo, "limit", 1)
    monkeypatch.setattr(cache.FRONT_END, "_store", type(cache.FRONT_END._store)())


def test_a_long_lived_engine_stays_flat(tiny_catalog, small_bounds):
    """``multi_tenant_adhoc``'s engine (deadline arbitration, sharing,
    prediction; 3 tenants x 8 Poisson arrivals per window, each window's
    handles dropped: ``tools/soak.py``), its bounded structures at one
    entry, the event queue drained after each window.  The window after
    the first added 70-90 KB to the live heap (``tracemalloc``: the
    one-entry caches' contents, allocated untraced, replaced by traced
    ones, and the demand history's floats) and -75..+95 GC-tracked
    objects; keeping every decision again, as the engine once did, made
    that 180-210 KB and 460-670 objects."""
    engine = AccordionEngine(tiny_catalog, config=SOAK_CONFIG)

    def window(seed: int) -> None:
        run_window(engine, seed=seed)
        engine.kernel.run(max_events=1_000_000)  # the samplers' last ticks
        gc.collect()

    window(1)
    objects = len(gc.get_objects())
    tracemalloc.start()
    window(2)
    grown = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert grown <= 130e3, f"{grown / 1e3:.0f} KB in a window"
    objects = len(gc.get_objects()) - objects
    assert objects <= 250, f"{objects} objects in a window"


def test_no_execution_outlives_a_window_whose_handles_were_dropped(tiny_catalog):
    """Only handles reach a retired execution: not a throughput sampler's
    next tick, nor a cancelled reprovision timer, still in the event
    queue after the window (both now hold their query weakly, and fire
    as before)."""
    engine = AccordionEngine(tiny_catalog, config=SOAK_CONFIG)
    run_window(engine, seed=1)
    gc.collect()
    assert engine.kernel.pending > 0  # the ticks are still queued
    assert not [
        obj for obj in gc.get_objects()
        if isinstance(obj, QueryExecution) and obj.kernel is engine.kernel
    ]


# -- (iv) what a long-lived engine keeps of each query -------------------------
def test_a_held_handle_answers_alike_after_300_later_queries(tiny_catalog):
    """A query's decisions, profile and fault report live with its
    handle, so a handle kept across 300 later session queries answers as
    it did when its query ended, while the engine keeps at most
    ``RETAINED_QUERIES`` records of retired queries and a template's
    history grows by one float per run."""
    engine = AccordionEngine(
        tiny_catalog,
        config=EngineConfig().with_tracing(enabled=False, profiling=True)
        .with_prediction(),
    )
    engine.apply(Plan(events=(TaskCrash(at=0.05, stage=1),)))
    session = engine.session("held")
    held = session.submit(QUERIES["Q3"])
    held.result()

    def answers() -> tuple:
        return held.decisions(), held.profile(), held.fault_report()

    before = answers()
    assert ("inject", "task_crash") in [(d.kind, d.outcome) for d in before[0]]
    assert before[1].entries
    sql = "select count(*) from nation where n_nationkey < {}"
    first = session.submit(sql.format(0))
    first.result()
    entry = engine.predict_service.store._templates[first.template]
    shape = json.dumps(entry["sums"], sort_keys=True).count(":")
    first_id, first = first.id, weakref.ref(first)
    for literal in range(1, 300):
        session.submit(sql.format(literal % 25)).result()
    gc.collect()
    assert answers() == before
    running = len(engine.coordinator.running)
    assert len(engine.coordinator.queries) <= RETAINED_QUERIES + running
    assert len(engine.coordinator.rpc.query_requests) <= RETAINED_QUERIES + running
    # Nothing in the engine holds a terminal session query's handle.
    assert first() is None
    assert first_id not in engine.coordinator.queries
    assert engine.coordinator.retired_dropped == 301 - RETAINED_QUERIES
    assert len(entry["runtimes"]) == 300
    assert all(isinstance(r, float) for r in entry["runtimes"])
    assert json.dumps(entry["sums"], sort_keys=True).count(":") == shape


def test_profile_rows_leave_the_profiler_with_their_query(tiny_catalog):
    """With profiling on, a retired query's operator rows move to its
    execution: over 300 queries the profiler's ``records`` stay flat, and
    its engine-wide per-operator totals are the running sum of every
    query's own profile."""
    engine = AccordionEngine(
        tiny_catalog, config=EngineConfig().with_tracing(enabled=False, profiling=True)
    )
    profiler = engine.tracer.profiler
    sql = "select n_regionkey, count(*) from nation where n_nationkey < {} group by n_regionkey"
    running: dict[str, int] = {}
    sizes = []
    for literal in range(300):
        handle = engine.submit(sql.format(literal % 25 + 1))
        handle.result()
        for entry in handle.profile().entries:
            running[entry.operator] = running.get(entry.operator, 0) + entry.wall_ns
        sizes.append(len(profiler.records))
        if literal in (0, 299):
            assert profiler.report().by_operator() == {
                name: ns / 1e9 for name, ns in running.items()
            }
    assert handle.profile().entries and max(sizes) == sizes[0] <= 20


def test_a_ring_counts_the_records_that_left(monkeypatch):
    """Past ``RETAINED_QUERIES`` the oldest retired key leaves the table
    and every companion table, and ``dropped`` counts it."""
    from repro import util

    monkeypatch.setattr(util, "RETAINED_QUERIES", 2)
    table, also = {1: "live", 2: "live", 3: "live"}, {1: 10, 2: 20, 3: 30}
    ring = RetiredRing(table, also)
    ring.retire(2, "record 2")
    ring.retire(1, "record 1")
    assert ring.dropped == 0
    ring.retire(3, "record 3")
    assert table == {1: "record 1", 3: "record 3"}
    assert also == {1: 10, 3: 30}
    assert ring.dropped == 1


def test_the_benchmark_reads_every_execution_it_starts(monkeypatch):
    """``bench/workloads.py`` reads ``multi_tenant_adhoc``'s long-lived
    ``coordinator.queries`` by position once per window, which is right
    only while no record has left it (``coordinator.retired_dropped`` is
    0).  One measuring process at the benchmark's run length starts the
    templates' cold executions, then at most one execution per
    submission of each warm-up and measured window: all of them fit in
    ``RETAINED_QUERIES``.  A longer run needs the benchmark to read by
    query id first (ROADMAP.md)."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.syspath_prepend(str(bench))
    try:
        run = importlib.import_module("run")
        adhoc = importlib.import_module("workloads").MultiTenantAdhoc
        seconds = float(run.spec()["run_seconds"])
        windows = run.WARMUP_ROUNDS + run.rounds_for(
            adhoc, SimpleNamespace(quick=False, seconds=seconds, parts=run.PARTS)
        )
    finally:  # the bench's own modules (``hostcal`` builds tables) go
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == bench:
                del sys.modules[name]
    per_window = adhoc.TENANTS * adhoc.QUERIES_PER_TENANT
    started = len(adhoc.queries) + windows * per_window
    assert started <= RETAINED_QUERIES, (
        f"{started} executions at {seconds:.0f} s; the ring keeps {RETAINED_QUERIES}"
    )
