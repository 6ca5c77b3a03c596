"""The parallel-determinism contract: workers change wall clock, nothing else.

The worker pool is a pure host-side acceleration.  These tests run the
same simulated execution serial (``workers=0``) and parallel
(``workers=N`` with thresholds forced low enough that offload engages at
test scale) and require everything the simulation determines to be
bit-identical: answer rows, virtual completion time, kernel events,
span-for-span traces — under a node crash and a seeded runtime-tuning
schedule, exactly like the cache-inertness contract — and byte-identical
rendered workload reports for same-seed multi-tenant runs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import TEST_SEED, norm_rows

from repro import (
    AccordionEngine,
    Catalog,
    CostModel,
    EngineConfig,
    FaultPlan,
    NodeCrash,
    TraceArrivals,
    Workload,
)
from repro.data.tpch.queries import QUERIES
from repro.errors import TuningRejected

MAX_EVENTS = 5_000_000

#: Virtual times at which the seeded tuning schedule acts.
TUNING_TIMES = (0.5, 1.0, 1.8)


def parallel_config(config: EngineConfig, workers: int) -> EngineConfig:
    """Enable offload with thresholds low enough to engage at test scale."""
    if workers == 0:
        return config
    return config.with_parallelism(
        workers=workers, min_offload_rows=1, min_chunk_rows=1
    )


def run_instrumented(sql: str, workers: int):
    """One full run under a crash + tuning schedule; returns everything
    the simulation determines, plus how many jobs were offloaded."""
    catalog = Catalog.tpch(scale=0.005, seed=TEST_SEED)
    config = parallel_config(
        EngineConfig(
            cost=CostModel().scaled(1000.0), page_row_limit=256
        ).with_tracing(),
        workers,
    )
    engine = AccordionEngine(catalog, config=config)
    engine.inject_faults(
        FaultPlan(seed=11, events=(NodeCrash(at=2.2, node="compute1"),))
    )
    handle = engine.submit(sql)
    rng = np.random.default_rng(99)
    actions = []
    for at in TUNING_TIMES:
        engine.run_until(at)
        stage = int(rng.integers(1, 4))
        dop = int(rng.integers(1, 6))
        try:
            outcome = handle.tuning.ap(stage, dop).accepted
        except TuningRejected as rejected:
            outcome = f"rejected: {rejected}"
        actions.append((at, stage, dop, outcome))
    engine.run_until_done(handle, max_events=MAX_EVENTS)
    jobs = engine.offload.stats.jobs if engine.offload is not None else 0
    return {
        "rows": norm_rows(handle.result().rows),
        "virtual_time": engine.now,
        "events": engine.kernel.events_processed,
        "actions": actions,
        "faults": len(engine.decisions.of(kind="inject")),
        "trace": json.dumps(
            handle.trace().to_chrome_json(), sort_keys=True, default=str
        ),
    }, jobs


@pytest.mark.parametrize("name", ["Q3", "Q5", "Q18"])
def test_parallel_is_bit_inert_under_faults_and_tuning(name):
    serial, serial_jobs = run_instrumented(QUERIES[name], workers=0)
    parallel, parallel_jobs = run_instrumented(QUERIES[name], workers=2)
    assert serial_jobs == 0
    assert parallel_jobs > 0, "offload must actually engage"
    assert parallel == serial
    assert serial["rows"]  # the query survived the crash and answered
    assert serial["faults"] >= 1  # the crash actually fired


# -- workload reports -------------------------------------------------------
WORKLOAD_QUERIES = [
    "select l_returnflag, count(*), sum(l_quantity) "
    "from lineitem group by l_returnflag",
    "select count(*), sum(l_extendedprice) from lineitem "
    "where l_quantity < 30",
]


def run_workload(workers: int):
    catalog = Catalog.tpch(scale=0.005, seed=TEST_SEED)
    config = parallel_config(
        EngineConfig(
            cost=CostModel().scaled(200.0), page_row_limit=256
        ).with_workload(max_queries_per_node=2.0),
        workers,
    )
    engine = AccordionEngine(catalog, config=config)
    workload = Workload(engine, seed=TEST_SEED)
    workload.add_tenant("a", WORKLOAD_QUERIES, TraceArrivals(times=(0.0,) * 4))
    workload.add_tenant(
        "b", WORKLOAD_QUERIES[::-1], TraceArrivals(times=(1.0,) * 3)
    )
    report = workload.run()
    answers = [
        (h.sql, tuple(map(tuple, h.result().rows))) for h in workload.handles
    ]
    jobs = engine.offload.stats.jobs if engine.offload is not None else 0
    return report.render(), answers, jobs


def test_workload_report_bytes_identical_serial_vs_parallel():
    serial_report, serial_answers, _ = run_workload(workers=0)
    parallel_report, parallel_answers, jobs = run_workload(workers=2)
    assert jobs > 0, "offload must actually engage"
    assert parallel_answers == serial_answers
    assert parallel_report == serial_report
