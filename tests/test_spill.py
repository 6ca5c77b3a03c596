"""Out-of-core execution: spill files, radix partitions, memory budgets.

The correctness contract of DESIGN.md §13: a query run under a memory
budget — however tiny — must return bit-identical rows to the in-memory
run, with the spilling observable through metrics counters, trace spans,
and operator profiles.
"""

import numpy as np
import pytest

from repro import (
    Catalog,
    EngineConfig,
    Plan,
    MemoryConfig,
    NodeCrash,
    QueryCancelledError,
    TuningRejected,
)
from repro.config import CostModel
from repro.data.tpch.dataset_cache import CACHE_DIR_ENV
from repro.data.tpch.queries import QUERIES
from repro.exec.operators.aggregation import FinalAggOperator, PartialAggOperator
from repro.exec.operators.join import HashJoinProbeOperator, JoinBridge, JoinBuildSink
from repro.exec.spill import (
    QueryMemory,
    SpillPartitions,
    SpillReader,
    SpillWriter,
    default_spill_root,
    radix_assignments,
)
from repro.pages import ColumnType, Page, Schema
from repro.plan.logical import JoinType
from repro.plan.physical import partial_agg_schema
from repro.sim import SimKernel
from repro.sql.expressions import AggregateCall, InputRef

from conftest import TEST_SEED, make_engine, norm_rows, slow_engine

INT = ColumnType.INT64
FLT = ColumnType.FLOAT64
STR = ColumnType.STRING
COST = CostModel()

#: A budget far below any query's working set at the test scale: every
#: stateful operator is forced onto the out-of-core path.
TINY_BUDGET = 16_384

MIXED = Schema.of(("k", INT), ("v", FLT), ("name", STR))


def mixed_page(n, seed=0):
    rng = np.random.default_rng(seed)
    return Page.from_dict(
        MIXED,
        {
            "k": rng.integers(0, max(n // 2, 1), size=n),
            "v": rng.normal(size=n),
            "name": [f"s{rng.integers(0, 100)}" for _ in range(n)],
        },
    )


def budgeted_memory(tmp_path, budget=TINY_BUDGET, **cfg):
    config = MemoryConfig(
        query_budget_bytes=budget, spill_dir=str(tmp_path), **cfg
    )
    return QueryMemory(1, config, COST)


# -- spill files -------------------------------------------------------------
def test_pagefile_round_trip(tmp_path):
    path = tmp_path / "t.spill"
    writer = SpillWriter(path, MIXED)
    pages = [mixed_page(100, seed=1), mixed_page(1, seed=2), mixed_page(57, seed=3)]
    for page in pages:
        assert writer.write_page(page) > 0
    writer.close()
    back = SpillReader(path, MIXED).read_all()
    assert [p.rows() for p in back] == [p.rows() for p in pages]


def test_pagefile_close_is_required_before_read(tmp_path):
    """The writer buffers aggressively; reading before close() would see a
    truncated tail (the exact bug the probe-side finish() call prevents)."""
    path = tmp_path / "t.spill"
    writer = SpillWriter(path, MIXED)
    writer.write_page(mixed_page(500, seed=4))
    assert path.stat().st_size < writer.bytes_written  # tail still buffered
    writer.close()
    assert path.stat().st_size == writer.bytes_written


def test_spill_writer_rejects_use_after_close(tmp_path):
    writer = SpillWriter(tmp_path / "t.spill", MIXED)
    writer.close()
    with pytest.raises(Exception, match="closed"):
        writer.write_page(mixed_page(1))


# -- radix partitioning ------------------------------------------------------
def test_radix_assignments_deterministic_and_in_range():
    keys = [np.arange(1000, dtype=np.int64) % 37]
    a = radix_assignments(keys, 8, 0)
    b = radix_assignments(keys, 8, 0)
    assert (a == b).all()
    assert a.min() >= 0 and a.max() < 8
    # Equal keys always land in the same partition (the join invariant).
    assert len(np.unique(a[keys[0] == 5])) == 1


def test_radix_levels_use_disjoint_hash_bits():
    """Rows stuck together at level 0 must split at level 1 — otherwise
    recursive repartitioning could never make progress."""
    keys = [np.arange(4096, dtype=np.int64)]
    l0 = radix_assignments(keys, 8, 0)
    part0 = keys[0][l0 == 0]
    l1 = radix_assignments([part0], 8, 1)
    assert len(np.unique(l1)) > 1


def test_spill_partitions_preserve_rows(tmp_path):
    parts = SpillPartitions(tmp_path, "t", MIXED, [0], fanout=8)
    pages = [mixed_page(200, seed=5), mixed_page(123, seed=6)]
    for page in pages:
        parts.write_page(page)
    parts.finish()
    expected = sorted(r for p in pages for r in p.rows())
    got = []
    for p in range(8):
        for page in parts.read_pages(p):
            got.extend(page.rows())
    assert sorted(got) == expected
    assert parts.total_bytes > 0
    parts.delete()
    assert list(tmp_path.iterdir()) == []


# -- memory accounting -------------------------------------------------------
def test_operator_memory_tracks_peaks_and_budget(tmp_path):
    memory = budgeted_memory(tmp_path, budget=1000)
    a = memory.operator("a")
    b = memory.operator("b")
    assert not a.update(600)
    assert not b.update(300)
    assert a.update(800)  # query total 1100 > 1000
    assert memory.over_budget
    a.release()
    assert memory.total_bytes == 300
    assert memory.peak_bytes == 1100
    assert b.peak_bytes == 300


def test_default_spill_root_uses_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert default_spill_root(MemoryConfig()) == tmp_path / "spill"
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert "repro-spill" in str(default_spill_root(MemoryConfig()))
    explicit = MemoryConfig(spill_dir=str(tmp_path / "x"))
    assert default_spill_root(explicit) == tmp_path / "x"


def test_spill_directory_lazy_and_cleanup(tmp_path):
    memory = budgeted_memory(tmp_path)
    assert list(tmp_path.iterdir()) == []  # no disk touched until needed
    spill_dir = memory.spill_directory()
    assert spill_dir.is_dir()
    (spill_dir / "t.spill").write_bytes(b"x")
    memory.cleanup()
    assert not spill_dir.exists()


# -- operator-level randomized bit-identity ----------------------------------
def grace_bridge(tmp_path, build_pages, budget):
    kernel = SimKernel()
    memory = budgeted_memory(tmp_path, budget=budget)
    bridge = JoinBridge(
        kernel, MIXED, [0], memory=memory.operator("bridge")
    )
    sink = JoinBuildSink(COST, bridge)
    sink.deliver(build_pages)
    sink.driver_finished()
    return bridge


def probe_rows_out(bridge, probe_pages, join_type=JoinType.INNER):
    out_schema = MIXED.concat(MIXED)
    if join_type in (JoinType.SEMI, JoinType.ANTI):
        out_schema = MIXED
    probe = HashJoinProbeOperator(COST, bridge, join_type, [0], None, out_schema)
    rows = []
    for page in probe_pages + [Page.end()]:
        outs, cost = probe.process(page)
        assert cost >= 0
        rows.extend(r for o in outs if not o.is_end for r in o.rows())
    return sorted(rows)


@pytest.mark.parametrize("seed", [11, 22, 33])
@pytest.mark.parametrize("join_type", [JoinType.INNER, JoinType.SEMI, JoinType.ANTI])
def test_random_joins_spill_bit_identical(tmp_path, seed, join_type):
    rng = np.random.default_rng(seed)
    build = [mixed_page(int(rng.integers(1, 400)), seed=seed + i) for i in range(3)]
    probe = [mixed_page(int(rng.integers(1, 400)), seed=seed + 10 + i) for i in range(3)]
    reference = probe_rows_out(
        grace_bridge(tmp_path / "m", build, budget=None), list(probe), join_type
    )
    spilled_bridge = grace_bridge(tmp_path / "s", build, budget=1)
    assert spilled_bridge.spilled
    assert probe_rows_out(spilled_bridge, list(probe), join_type) == reference


def test_degenerate_single_key_join_does_not_recurse_forever(tmp_path):
    """All build rows share one key: every radix level maps them to one
    partition, so the strict-shrink guard must force an in-memory build."""
    n = 2000
    one_key = Page.from_dict(
        MIXED, {"k": np.zeros(n, dtype=np.int64), "v": np.ones(n), "name": ["x"] * n}
    )
    bridge = grace_bridge(tmp_path, [one_key], budget=1)
    probe = Page.from_dict(
        MIXED, {"k": np.zeros(2, dtype=np.int64), "v": np.zeros(2), "name": ["y"] * 2}
    )
    rows = probe_rows_out(bridge, [probe])
    assert len(rows) == 2 * n


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_random_aggregation_spill_bit_identical(tmp_path, seed):
    calls = [
        AggregateCall("sum", InputRef(1, FLT), FLT),
        AggregateCall("count", None, INT),
        AggregateCall("min", InputRef(1, FLT), FLT),
    ]
    pschema = partial_agg_schema(MIXED, [0, 2], calls)
    out_schema = Schema.of(
        ("k", INT), ("name", STR), ("s", FLT), ("c", INT), ("mn", FLT)
    )

    def run(memory):
        partial = PartialAggOperator(COST, [0, 2], calls, pschema)
        final = FinalAggOperator(COST, 2, calls, out_schema, memory=memory)
        rows = []
        rng = np.random.default_rng(seed)  # same inputs both runs
        inputs = [
            mixed_page(int(rng.integers(1, 500)), seed=seed + i) for i in range(4)
        ]
        partial_pages = []
        for page in inputs + [Page.end()]:
            outs, _ = partial.process(page)
            partial_pages.extend(o for o in outs if not o.is_end)
        for page in partial_pages + [Page.end()]:
            outs, cost = final.process(page)
            assert cost >= 0
            rows.extend(r for o in outs if not o.is_end for r in o.rows())
        return sorted(rows)

    reference = run(None)
    memory = budgeted_memory(tmp_path, budget=1)
    spilled = run(memory.operator("final_agg"))
    assert memory.spills > 0
    assert spilled == reference


# -- end-to-end: budgeted queries return identical rows ----------------------
@pytest.mark.parametrize("query", ["Q3", "Q5", "Q9", "Q18"])
def test_tiny_budget_query_bit_identity(catalog, query, tmp_path):
    baseline = make_engine(catalog).submit(QUERIES[query])
    reference = baseline.result()
    engine = make_engine(
        catalog,
        memory=MemoryConfig(query_budget_bytes=TINY_BUDGET, spill_dir=str(tmp_path)),
    )
    handle = engine.submit(QUERIES[query])
    result = handle.result()
    assert norm_rows(result.rows) == norm_rows(reference.rows)
    memory = handle.execution.memory
    assert memory.spills > 0, "tiny budget never spilled"
    assert engine.metrics.counter("spill.spills").value == memory.spills
    assert engine.metrics.counter("spill.bytes").value == memory.spilled_bytes
    # Partition-at-a-time merging keeps the budgeted peak well below the
    # in-memory peak for the state-heavy queries.
    if query in ("Q9", "Q18"):
        assert memory.peak_bytes < baseline.execution.memory.peak_bytes


def budgeted_peak_ratio_at_sf005(query, budget_of_peak, tmp_path) -> float:
    """Run ``query`` at SF0.05 in memory, then under ``budget_of_peak(peak)``
    bytes: it must spill (a budget that never bites proves nothing),
    return the same rows and leave no spill files.  Returns budgeted
    tracked peak / in-memory tracked peak."""
    catalog = Catalog.tpch(scale=0.05, seed=TEST_SEED)
    baseline = make_engine(catalog).submit(QUERIES[query])
    reference = baseline.result()
    peak = baseline.execution.memory.peak_bytes
    engine = make_engine(
        catalog,
        memory=MemoryConfig(
            query_budget_bytes=budget_of_peak(peak), spill_dir=str(tmp_path)
        ),
    )
    handle = engine.submit(QUERIES[query])
    assert norm_rows(handle.result().rows) == norm_rows(reference.rows)
    assert engine.metrics.counter("spill.spills").value >= 1
    assert engine.metrics.counter("spill.bytes").value > 0
    assert list(tmp_path.glob("q*")) == []
    return handle.execution.memory.peak_bytes / peak


def test_q18_at_sf005_spills_under_256k_and_leaves_nothing(tmp_path):
    """A working set (11 MB) forty times the budget: 7.3 % measured."""
    assert budgeted_peak_ratio_at_sf005("Q18", lambda peak: 262_144, tmp_path) < 1.0


@pytest.mark.parametrize("query", ["Q9", "Q18"])
def test_budget_of_a_fifth_keeps_peak_under_a_quarter(query, tmp_path):
    """The budget sits below the ceiling because an operator detects the
    overage only after the growth that caused it, so the tracked peak
    overshoots the budget by up to one build increment (23 % / 22 %)."""
    ratio = budgeted_peak_ratio_at_sf005(query, lambda peak: int(0.2 * peak), tmp_path)
    assert ratio <= 0.25


@pytest.mark.xfail(
    strict=True,
    reason="Driver ignores sink.deliver()'s return, so the spill-write cost "
    "JoinBuildSink.deliver carries from bridge.add_page never reaches the "
    "virtual clock (ROADMAP correctness item; DESIGN.md section 13 says spill "
    "I/O is charged when spilling happens). Fixing it moves spill_budgeted.",
)
def test_spilled_build_quanta_cost_more_than_the_same_rows_unspilled(catalog, tmp_path):
    def build_side(memory):
        handle = make_engine(catalog, memory=memory).submit(QUERIES["Q3"])
        handle.result()
        drivers = [
            driver
            for stage in handle.execution.stages.values()
            for task in stage.tasks
            for pipeline in task.pipelines
            for driver in pipeline.drivers
            if isinstance(driver.sink, JoinBuildSink)
        ]
        return (
            sum(d.cpu_time for d in drivers),
            sum(d.sink.bridge.build_rows for d in drivers),
            any(d.sink.bridge.spilled for d in drivers),
        )

    seconds, rows, spilled = build_side(MemoryConfig())
    spill_seconds, spill_rows, spill_spilled = build_side(
        MemoryConfig(query_budget_bytes=TINY_BUDGET, spill_dir=str(tmp_path))
    )
    assert (rows, spilled, spill_spilled) == (spill_rows, False, True)
    assert spill_seconds > seconds


def test_ample_budget_never_spills(catalog, tmp_path):
    engine = make_engine(
        catalog,
        memory=MemoryConfig(query_budget_bytes=1 << 30, spill_dir=str(tmp_path)),
    )
    handle = engine.submit(QUERIES["Q3"])
    result = handle.result()
    assert norm_rows(result.rows) == norm_rows(
        make_engine(catalog).execute(QUERIES["Q3"]).rows
    )
    assert handle.execution.memory.spills == 0
    assert list(tmp_path.iterdir()) == []  # spill dir never created


def test_spill_observability(catalog, tmp_path):
    """Spilling shows up in all three obs channels: trace spans, metrics
    counters, and per-operator profile peak bytes."""
    config = EngineConfig(
        memory=MemoryConfig(query_budget_bytes=TINY_BUDGET, spill_dir=str(tmp_path))
    ).with_tracing(profiling=True)
    from repro import AccordionEngine

    engine = AccordionEngine(catalog, config=config)
    handle = engine.submit(QUERIES["Q18"])
    handle.result()
    spans = handle.trace().spans_of("spill")
    assert spans, "no spill spans recorded"
    assert all(s.meta["bytes"] >= 0 and s.meta["query_id"] == handle.id for s in spans)
    assert engine.metrics.counter("spill.partitions").value > 0
    profile = handle.profile()
    assert max(e.peak_bytes for e in profile.entries) > 0


def test_query_spill_directory_cleaned_on_success(catalog, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    engine = make_engine(
        catalog, memory=MemoryConfig(query_budget_bytes=TINY_BUDGET)
    )
    handle = engine.submit(QUERIES["Q9"])
    handle.result()
    assert handle.execution.memory.spills > 0
    spill_root = tmp_path / "spill"
    assert not spill_root.exists() or list(spill_root.iterdir()) == []


def test_query_spill_directory_cleaned_on_cancel(catalog, tmp_path):
    """A query cancelled after it spilled leaves no spill file either."""
    engine = make_engine(
        catalog,
        memory=MemoryConfig(query_budget_bytes=TINY_BUDGET, spill_dir=str(tmp_path)),
    )
    handle = engine.submit(QUERIES["Q18"])
    while not handle.finished and handle.execution.memory.spills == 0:
        engine.run_for(0.01)
    assert not handle.finished and list(tmp_path.iterdir()) != []
    handle.cancel()
    with pytest.raises(QueryCancelledError):
        handle.result()
    assert list(tmp_path.iterdir()) == []


def test_spill_survives_node_crash_recovery(tiny_catalog, tmp_path):
    """A node crash mid-query with spilled state: the respawned tasks
    rebuild (and re-spill) their state and the rows stay identical."""
    reference = make_engine(tiny_catalog).execute(QUERIES["Q3"])
    memory = MemoryConfig(query_budget_bytes=2048, spill_dir=str(tmp_path))
    clean = slow_engine(tiny_catalog, memory=memory)
    probe = clean.submit(QUERIES["Q3"])
    clean.run_until_done(probe, max_events=5_000_000)
    horizon = probe.elapsed
    assert probe.execution.memory.spills > 0

    engine = slow_engine(tiny_catalog, memory=memory)
    engine.apply(
        Plan(events=(NodeCrash(at=horizon * 0.5, node="compute2"),))
    )
    handle = engine.submit(QUERIES["Q3"])
    engine.run_until_done(handle, max_events=5_000_000)
    assert norm_rows(handle.result().rows) == norm_rows(reference.rows)
    assert engine.metrics.snapshot()["recovery.node_failures"] == 1
    assert handle.execution.memory.spills > 0
    assert list(tmp_path.iterdir()) == []  # recovery leaves no orphan files


# -- arbiter memory grants ---------------------------------------------------
def test_session_memory_grant_sets_budget(catalog, tmp_path):
    engine = make_engine(catalog)
    session = engine.session("acme")
    handle = session.submit(QUERIES["Q3"], memory_bytes=1 << 20)
    assert handle.execution.memory.budget_bytes == 1 << 20
    entry = engine.workload.arbiter.entries[handle.id]
    assert entry.memory_bytes == 1 << 20
    handle.result()
    stats = engine.metrics.snapshot()
    assert {
        "arbiter.memory_granted_bytes", "arbiter.memory_tracked_bytes",
        "arbiter.memory_spilled_bytes",
    } <= set(stats)


def test_arbiter_resize_memory_trims_and_grants(catalog, tmp_path):
    engine = slow_engine(
        catalog, memory=MemoryConfig(spill_dir=str(tmp_path))
    )
    session = engine.session("acme")
    handle = session.submit(QUERIES["Q9"], memory_bytes=1 << 30)
    engine.run_until(handle.execution.started_at or 0.5)
    arbiter = engine.workload.arbiter

    arbiter.resize_memory(handle.id, TINY_BUDGET)  # trim: starts spilling
    assert handle.execution.memory.budget_bytes == TINY_BUDGET
    assert engine.metrics.snapshot()["arbiter.trims"] >= 1
    arbiter.resize_memory(handle.id, 1 << 30)  # re-grant: stops spilling
    assert engine.metrics.snapshot()["arbiter.grants"] >= 1
    memory_bids = handle.decisions()[-2:]
    assert [b.kind for b in memory_bids] == ["memory", "memory"]
    assert engine.decisions.of(kind="memory") == memory_bids
    assert memory_bids[0].outcome == "trim"
    assert memory_bids[1].outcome == "grant"

    handle.result()
    with pytest.raises(TuningRejected, match="not registered or already finished"):
        arbiter.resize_memory(handle.id, 1 << 20)
    with pytest.raises(TuningRejected):
        arbiter.resize_memory(424242, None)


def test_mid_query_trim_forces_spill_with_identical_rows(catalog, tmp_path):
    """The elastic story end-to-end: an unbudgeted query trimmed mid-run
    starts spilling and still produces the in-memory answer."""
    reference = make_engine(catalog).execute(QUERIES["Q18"])
    engine = slow_engine(catalog, memory=MemoryConfig(spill_dir=str(tmp_path)))
    session = engine.session("acme")
    handle = session.submit(QUERIES["Q18"])
    engine.run_until(1.0)
    assert not handle.finished
    engine.workload.arbiter.resize_memory(handle.id, TINY_BUDGET)
    assert norm_rows(handle.result().rows) == norm_rows(reference.rows)
    assert handle.execution.memory.spills > 0
