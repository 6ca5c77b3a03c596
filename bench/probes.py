"""Layer probes: one microbenchmark per layer, fixed seeded inputs.

Each probe drives one layer through names in that package's ``__all__``
(operator descriptors are *obtained* from a plan the public planner
produced, never imported) and reports a throughput in the layer's own
unit.  A probe repeats its work ``reps`` times and reports the median, so
one scheduler hiccup does not move it.  Probes run once per traced
invocation, after the workload's rounds, and share nothing with them but
the process.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import numpy as np

from repro import (
    AccordionEngine,
    BufferConfig,
    Catalog,
    CostModel,
    EngineConfig,
    ParallelConfig,
    QueryOptions,
    TPCH_QUERIES,
)
from repro.buffers import ShuffleOutputBuffer
from repro.exec.operators import (
    FilterOperator,
    FinalAggOperator,
    HashJoinProbeOperator,
    JoinBridge,
    JoinBuildSink,
    PartialAggOperator,
    ProjectOperator,
)
from repro.exec.spill import SpillReader, SpillWriter, radix_assignments
from repro.pages import Page, concat_pages
from repro.parallel import OffloadClient
from repro.plan import LogicalPlanner, prune_columns
from repro.predict import template_fingerprint
from repro.sharing import normalize_logical
from repro.sim import CpuPool, SimKernel
from repro.sql import parse

#: A scale no workload uses, so the first load in a process comes from
#: the on-disk dataset cache and not the in-process memo.
PROBE_SCALE = 0.03
DATASET_SEED = 20250622
PROBE_SEED = 7
PAGE_ROWS = 4096
COST = CostModel()

HIGHCARD_SQL = "select l_orderkey, sum(l_quantity) from lineitem group by l_orderkey"
PLAN_TEMPLATES = ("Q1", "Q3", "Q5", "Q6", "Q9", "Q12", "Q14", "Q18", "Q2J")


def _median_seconds(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# -- plan descriptors ---------------------------------------------------------
def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


def _find(plan, kind: str):
    """First physical node of ``kind`` (``PNode.name``) in stage order."""
    for fragment_id in sorted(plan.fragments, reverse=True):
        for node in _walk(plan.fragments[fragment_id].root):
            if node.name == kind:
                return node
    raise LookupError(f"plan has no {kind} node")


def _pages_of(catalog, plan, node) -> list[Page]:
    """The pages ``node`` produces, by running the plan's own scan,
    filter and project descriptors below it (outside any timer)."""
    kind = node.name
    if kind == "Scan":
        table = catalog.table(node.table)
        columns = list(node.column_indexes)
        return [
            table.page(start, start + PAGE_ROWS).select(columns)
            for start in range(0, table.num_rows, PAGE_ROWS)
        ]
    if kind == "RemoteSource":
        return _pages_of(catalog, plan, plan.fragments[node.child_fragment].root)
    if kind in ("LocalExchange", "TaskOutput"):
        return _pages_of(catalog, plan, node.child)
    if kind == "Filter":
        operator = FilterOperator(COST, node.predicate)
    elif kind == "Project":
        operator = ProjectOperator(COST, node.exprs, node.schema)
    else:
        raise LookupError(f"cannot produce probe input through {kind}")
    return _drain(operator, _pages_of(catalog, plan, node.child))


def _drain(operator, pages) -> list[Page]:
    out = []
    for page in pages:
        out.extend(operator.process(page)[0])
    out.extend(operator.process(Page.end())[0])
    return [page for page in out if not page.is_end]


def _rows(pages) -> int:
    return sum(page.num_rows for page in pages)


# -- the probes ----------------------------------------------------------------
def run_probes(scratch: Path, reps: int = 5) -> dict[str, float]:
    """Run every probe; returns ``{metric name: value}``."""
    out: dict[str, float] = {}

    start = time.perf_counter()
    catalog = Catalog.tpch(PROBE_SCALE, DATASET_SEED)
    out["probe.data.catalog_load_s"] = time.perf_counter() - start

    engine = AccordionEngine(catalog, config=EngineConfig(plan_cache=False))

    def plan_of(sql: str):
        return engine.coordinator.plan_sql(sql, QueryOptions())

    _probe_sim(out, reps)
    _probe_pages(out, catalog, reps)
    _probe_expressions(out, catalog, plan_of, reps)
    _probe_aggregation(out, catalog, plan_of, reps)
    _probe_join(out, catalog, plan_of, reps)
    _probe_shuffle(out, catalog, reps)
    _probe_spill(out, catalog, scratch, reps)
    _probe_parallel(out, reps)
    _probe_front_end(out, catalog, plan_of, reps)
    return out


def _probe_sim(out, reps) -> None:
    events = 100_000
    rng = random.Random(PROBE_SEED)
    delays = [rng.random() for _ in range(events)]

    def noop(_arg=None):
        return None

    def run():
        kernel = SimKernel()
        for delay in delays:
            kernel.post(delay, noop)
        kernel.run()

    out["probe.sim.events_per_s"] = events / _median_seconds(run, reps)


def _probe_pages(out, catalog, reps) -> None:
    lineitem = catalog.table("lineitem")
    page = lineitem.page(0, 16 * PAGE_ROWS)  # every column, strings included
    buffers = page.column_buffers()
    megabytes = sum(len(b) if isinstance(b, bytes) else b.nbytes for b in buffers) / 1e6
    out["probe.pages.encode_mb_per_s"] = megabytes / _median_seconds(
        page.column_buffers, reps
    )
    out["probe.pages.decode_mb_per_s"] = megabytes / _median_seconds(
        lambda: Page.from_column_buffers(page.schema, page.num_rows, buffers), reps
    )
    indices = np.random.default_rng(PROBE_SEED).permutation(page.num_rows)
    out["probe.pages.take_mrows_per_s"] = page.num_rows / 1e6 / _median_seconds(
        lambda: page.take(indices), reps
    )
    parts = [lineitem.page(i * PAGE_ROWS, (i + 1) * PAGE_ROWS) for i in range(16)]
    out["probe.pages.concat_mrows_per_s"] = _rows(parts) / 1e6 / _median_seconds(
        lambda: concat_pages(page.schema, parts), reps
    )


def _probe_expressions(out, catalog, plan_of, reps) -> None:
    q6 = plan_of(TPCH_QUERIES["Q6"])
    scan_filter = _find(q6, "Filter")
    pages = _pages_of(catalog, q6, scan_filter.child)
    out["probe.sql.filter_mrows_per_s"] = _rows(pages) / 1e6 / _median_seconds(
        lambda: _drain(FilterOperator(COST, scan_filter.predicate), pages), reps
    )
    q1 = plan_of(TPCH_QUERIES["Q1"])
    project = _find(q1, "Project")
    pages = _pages_of(catalog, q1, project.child)
    out["probe.sql.project_mrows_per_s"] = _rows(pages) / 1e6 / _median_seconds(
        lambda: _drain(ProjectOperator(COST, project.exprs, project.schema), pages),
        reps,
    )


def _partial(node) -> PartialAggOperator:
    return PartialAggOperator(COST, node.group_keys, node.aggregates, node.schema)


def _probe_aggregation(out, catalog, plan_of, reps) -> None:
    q1 = plan_of(TPCH_QUERIES["Q1"])
    low = _find(q1, "PartialAgg")
    inputs = _pages_of(catalog, q1, low.child)
    out["probe.exec.agg_lowcard_mrows_per_s"] = _rows(inputs) / 1e6 / _median_seconds(
        lambda: _drain(_partial(low), inputs), reps
    )
    plan = plan_of(HIGHCARD_SQL)
    high = _find(plan, "PartialAgg")
    inputs = _pages_of(catalog, plan, high.child)
    out["probe.exec.agg_highcard_mrows_per_s"] = _rows(inputs) / 1e6 / _median_seconds(
        lambda: _drain(_partial(high), inputs), reps
    )
    final = _find(plan, "FinalAgg")
    partials = _drain(_partial(high), inputs)
    out["probe.exec.agg_final_mrows_per_s"] = _rows(partials) / 1e6 / _median_seconds(
        lambda: _drain(
            FinalAggOperator(
                COST, len(final.group_keys), final.aggregates, final.schema
            ),
            partials,
        ),
        reps,
    )


def _probe_join(out, catalog, plan_of, reps) -> None:
    plan = plan_of(TPCH_QUERIES["Q2J"])
    join = _find(plan, "Join")
    build_pages = _pages_of(catalog, plan, join.build)
    probe_pages = _pages_of(catalog, plan, join.probe)

    def build() -> JoinBridge:
        bridge = JoinBridge(SimKernel(), join.build.schema, list(join.build_keys))
        sink = JoinBuildSink(COST, bridge)
        sink.deliver(build_pages)
        sink.driver_finished()
        return bridge

    out["probe.exec.join_build_mrows_per_s"] = (
        _rows(build_pages) / 1e6 / _median_seconds(build, reps)
    )
    bridge = build()
    out["probe.exec.join_probe_mrows_per_s"] = _rows(probe_pages) / 1e6 / _median_seconds(
        lambda: _drain(
            HashJoinProbeOperator(
                COST, bridge, join.join_type, join.probe_keys, join.residual,
                join.schema,
            ),
            probe_pages,
        ),
        reps,
    )


def _probe_shuffle(out, catalog, reps) -> None:
    lineitem = catalog.table("lineitem")
    pages = [
        lineitem.page(i * PAGE_ROWS, (i + 1) * PAGE_ROWS).select([0, 4, 5])
        for i in range(24)
    ]
    consumers = [0, 1, 2, 3]

    def run():
        kernel = SimKernel()
        buffer = ShuffleOutputBuffer(
            kernel, BufferConfig(), key_positions=[0],
            cpu=CpuPool(kernel, 4), cost=COST,
        )
        buffer.set_group(consumers)
        for page in pages:
            buffer.put(page)
        kernel.run()
        for consumer in consumers:
            buffer.take(consumer, len(pages))

    out["probe.buffers.shuffle_mrows_per_s"] = (
        _rows(pages) / 1e6 / _median_seconds(run, reps)
    )


def _probe_spill(out, catalog, scratch: Path, reps) -> None:
    lineitem = catalog.table("lineitem")
    pages = [lineitem.page(i * PAGE_ROWS, (i + 1) * PAGE_ROWS) for i in range(8)]
    path = scratch / "probe.spill"
    written = 0

    def write():
        nonlocal written
        writer = SpillWriter(path, lineitem.schema)
        for page in pages:
            writer.write_page(page)
        writer.close()
        written = writer.bytes_written

    try:
        write_seconds = _median_seconds(write, reps)
        out["probe.spill.write_mb_per_s"] = written / 1e6 / write_seconds
        out["probe.spill.read_mb_per_s"] = written / 1e6 / _median_seconds(
            lambda: SpillReader(path, lineitem.schema).read_all(), reps
        )
    finally:
        path.unlink(missing_ok=True)
    keys = [lineitem.columns[0][: 32 * PAGE_ROWS]]
    out["probe.spill.radix_mrows_per_s"] = len(keys[0]) / 1e6 / _median_seconds(
        lambda: radix_assignments(keys, 8, 0), reps
    )


def _probe_parallel(out, reps) -> None:
    client = OffloadClient(ParallelConfig(workers=2))
    tiny = [np.arange(8, dtype=np.int64)]
    megabyte = [np.zeros(1 << 17, dtype=np.int64)]  # 1 MiB each way

    def echo(arrays, count):
        for _ in range(count):
            client.wait(client.submit("_test_echo", arrays, {}))

    echo(tiny, 20)  # first jobs pay worker warm-up
    out["probe.parallel.roundtrip_us"] = (
        _median_seconds(lambda: echo(tiny, 100), reps) / 100 * 1e6
    )
    out["probe.parallel.ship_mb_per_s"] = (
        2 * 10 * (1 << 20) / 1e6 / _median_seconds(lambda: echo(megabyte, 10), reps)
    )


def _probe_front_end(out, catalog, plan_of, reps) -> None:
    q5 = TPCH_QUERIES["Q5"]
    logical = prune_columns(LogicalPlanner(catalog).plan(parse(q5)))
    out["probe.sharing.normalize_us"] = (
        _median_seconds(lambda: normalize_logical(logical), reps * 4) * 1e6
    )
    out["probe.predict.fingerprint_us"] = (
        _median_seconds(
            lambda: template_fingerprint(catalog, q5, QueryOptions()), reps * 4
        )
        * 1e6
    )
    texts = [TPCH_QUERIES[name] for name in PLAN_TEMPLATES]
    out["probe.plan.cold_plan_ms"] = (
        _median_seconds(lambda: [plan_of(sql) for sql in texts], reps)
        / len(texts)
        * 1e3
    )
