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
import sys
import tracemalloc
from pathlib import Path

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
from repro.cluster import Cluster, Coordinator
from repro.cluster.node import Node
from repro.data import Catalog
from repro.data.tpch.queries import QUERIES
from repro.exec.task import Task
from repro.faults.recovery import TASK_RETRY_BUDGET
from repro.obs import DecisionLog, MetricsRegistry, Tracer
from repro.pages import Page
from repro.sharing import SharingManager
from repro.sim import SimKernel
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
def test_a_long_lived_engine_stays_flat(catalog):
    """``multi_tenant_adhoc``'s engine (deadline arbitration, sharing,
    prediction; 3 tenants x 8 Poisson arrivals per window, each window's
    handles dropped: ``tools/soak.py``) at SF0.005.  Measured over
    windows 3-8 after a full collection each window: with sealing alone
    the live heap (``tracemalloc``) grew 2.5 MB and the GC-tracked
    objects ~12,600 per window, because the engine kept every retired
    execution; keeping only its record, 0.5 MB and ~2,200 (the decision
    log and the plan cache).  The bounds are a quarter of the former."""
    engine = AccordionEngine(catalog, config=SOAK_CONFIG)
    sizes, objects = [], []
    for window in range(1, 9):
        if window == 3:
            gc.collect()
            tracemalloc.start()
        run_window(engine, seed=window)
        if window >= 3:
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
            objects.append(len(gc.get_objects()))
    tracemalloc.stop()
    per_window = (sizes[-1] - sizes[0]) / (len(sizes) - 1)
    assert per_window <= 2.5e6 / 4, f"{per_window / 1e6:.2f} MB per window"
    per_window = (objects[-1] - objects[0]) / (len(objects) - 1)
    assert per_window <= 12_600 / 4, f"{per_window:.0f} objects per window"
