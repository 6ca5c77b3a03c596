"""Hot-path guard: the benchmark queries never leave the dictionary encoding.

``DictColumn`` keeps code that was not taught about it working through
``decode()`` / ``__array__`` — one python object per cell, the cost the
encoding exists to remove — and ``Page`` re-encodes python values an
operator hands it (``DictColumn.from_values``).  Both are legitimate at
the edges (ingestion, string functions without a dictionary form) and
both are silent, so an operator that falls back to them would give the
speed-up back without failing anything.  This test makes it fail: from
``engine.submit`` to the materialised ``handle.result()`` the scan/agg
and join/shuffle benchmark templates decode and re-encode nothing.
"""

import ast
import gc
import heapq
import importlib
import inspect
import sys
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TEST_SCALE, TEST_SEED, make_engine, slow_engine

import repro
from repro import QueryOptions, TPCH_QUERIES
from repro.data import Catalog
from repro.exec import operators
from repro.exec.operators import aggregation, join
from repro.exec.exchange_client import ExchangeClient
from repro.exec.spill import SpillPartitions
from repro.exec.splits import SystemSplit
from repro.pages import ColumnType, DictColumn, Page, Schema
from repro.sim import resources
from repro.sql.expressions import AggregateCall, InputRef


@pytest.mark.parametrize("name", ["Q1", "Q6", "Q5", "Q9", "Q18"])
def test_benchmark_queries_never_decode_or_reencode(catalog, monkeypatch, name):
    calls = {"decode": 0, "from_values": 0}
    decode, from_values = DictColumn.decode, DictColumn.from_values.__func__

    def counting_decode(self):
        calls["decode"] += 1
        return decode(self)

    def counting_from_values(cls, values):
        calls["from_values"] += 1
        return from_values(cls, values)

    engine = make_engine(catalog)
    monkeypatch.setattr(DictColumn, "decode", counting_decode)
    monkeypatch.setattr(DictColumn, "from_values", classmethod(counting_from_values))
    handle = engine.submit(TPCH_QUERIES[name])
    result = handle.result()
    monkeypatch.undo()

    assert calls == {"decode": 0, "from_values": 0}
    assert result.rows, "the query must exercise its string columns"
    # The counters do count: the escape hatch and ingestion both register.
    monkeypatch.setattr(DictColumn, "decode", counting_decode)
    monkeypatch.setattr(DictColumn, "from_values", classmethod(counting_from_values))
    np.asarray(DictColumn.from_values(["a"]))
    assert calls == {"decode": 1, "from_values": 1}


# -- the data plane between operators: O(1) host work per sim event ---------
#
# Counts, not timings: the exchange client's wake-up path once cost
# O(upstream splits x accumulated waiters) per event (every empty poll left
# one more ``_resume_all`` on ``buffer.not_full``, and each copy walked
# every split), which no virtual-clock test can see.  The counters below
# are installed with ``monkeypatch`` on the methods every fetch goes
# through, under the elastic benchmark's config (1000x costs, 256-row
# pages), where receive buffers fill and drain thousands of times.
ELASTIC_QUERIES = {
    "Q5": None,
    "Q2J": QueryOptions(join_distribution="partitioned", initial_stage_dop=4),
}


@pytest.fixture(scope="module")
def double_catalog():
    """Twice the tier-1 scale factor, for the scaling rows."""
    return Catalog.tpch(scale=2 * TEST_SCALE, seed=TEST_SEED)


def exchange_work(monkeypatch, catalog, name):
    """Run one query to completion; returns the work it made the exchange
    clients do, having checked the wake-up invariants on the way."""
    work = {"attempts": 0, "fetches": 0, "pages": 0, "subscriptions": 0}
    try_fetch, commit_fetch = ExchangeClient._try_fetch, ExchangeClient._commit_fetch
    resume_all, read = ExchangeClient._resume_all, SystemSplit.read

    def own_subscriptions(client):
        return sum(
            getattr(waiter, "__self__", None) is client
            for waiter in client.buffer.not_full._waiters
        )

    def counting_try_fetch(self, state):
        work["attempts"] += 1
        try_fetch(self, state)
        work["subscriptions"] = max(work["subscriptions"], own_subscriptions(self))

    def counting_commit_fetch(self, *args):
        work["fetches"] += 1
        commit_fetch(self, *args)

    def checking_resume_all(self):
        work["subscriptions"] = max(work["subscriptions"], own_subscriptions(self))
        # What lets ``_resume_all`` skip waiting splits: whatever gives a
        # consumer a page or an end runs its waiters, so a registered one
        # has nothing to take (read off the producer's queues; a ``take``
        # would remove it).
        for state in self.splits.values():
            upstream = state.split.upstream.output_buffer
            queue = upstream.consumers[state.split.buffer_id]
            assert not (
                state.waiting and (queue.pages or getattr(upstream, "_shared", None))
            ), f"{self.name}: waiting on {state.split.key} although it has data"
        resume_all(self)

    def counting_read(self, *args):
        page = read(self, *args)
        work["pages"] += page.num_rows > 0
        return page

    monkeypatch.setattr(ExchangeClient, "_try_fetch", counting_try_fetch)
    monkeypatch.setattr(ExchangeClient, "_commit_fetch", counting_commit_fetch)
    monkeypatch.setattr(ExchangeClient, "_resume_all", checking_resume_all)
    monkeypatch.setattr(SystemSplit, "read", counting_read)
    engine = slow_engine(catalog)
    handle = engine.submit(TPCH_QUERIES[name], ELASTIC_QUERIES[name])
    assert handle.result().rows
    monkeypatch.undo()
    work["events"] = engine.kernel.events_processed
    return work


@pytest.mark.parametrize("name", list(ELASTIC_QUERIES))
def test_exchange_wakeups_do_bounded_work_per_fetch(
    catalog, double_catalog, monkeypatch, name
):
    small = exchange_work(monkeypatch, catalog, name)
    large = exchange_work(monkeypatch, double_catalog, name)
    for work in (small, large):
        assert work["fetches"] > 100, "the query must exercise the exchange"
        # One persistent space subscription per client, never a pile of them.
        assert work["subscriptions"] == 1
        assert work["attempts"] <= 3 * work["fetches"]
    # The scaling rows: twice the data is (nearly) twice the pages, and
    # neither the wake-up work per fetch nor the kernel events per page
    # may move with it.
    assert large["pages"] > 1.8 * small["pages"]
    for top, bottom in (("attempts", "fetches"), ("events", "pages")):
        a, b = small[top] / small[bottom], large[top] / large[bottom]
        assert abs(a - b) < 0.10 * max(a, b), (top, bottom, small, large)


# -- idle resources pay no queue ------------------------------------------------
#
# A core pool pushes onto its heap only when no core is free or someone is
# already waiting (otherwise the heap would hand the item straight back),
# and a link appends to its pending deque only while a transfer holds it.
class _WatchedPending(deque):
    def __init__(self, link, appends):
        super().__init__()
        self.link, self.appends = link, appends

    def append(self, item):
        self.appends.append(self.link._active)
        super().append(item)


def test_idle_cores_and_links_are_granted_without_queueing(catalog, monkeypatch):
    engine = slow_engine(catalog)
    nodes = engine.cluster.all_nodes()
    pools = {id(node.cpu._queue): node.cpu for node in nodes}
    pushes, appends = [], []

    def watched_heappush(heap, item):
        pool = pools[id(heap)]
        pushes.append(pool.busy >= pool.cores or bool(heap))
        heapq.heappush(heap, item)

    monkeypatch.setattr(
        resources, "heapq", SimpleNamespace(heappush=watched_heappush, heappop=heapq.heappop)
    )
    for node in nodes:
        node.nic._pending = _WatchedPending(node.nic, appends)
    # Eight drivers per task: the default DOPs never fill a node's 8 cores.
    handle = engine.submit(TPCH_QUERIES["Q5"], QueryOptions(initial_task_dop=8))
    assert handle.result().rows
    assert pushes and appends, "the query must contend for cores and links"
    assert all(pushes) and all(appends)


# -- partial aggregation: rows reach their slots without page-local groups ----
#
# Counts again: a page of Q1 used to be factorized from scratch
# (``group_codes`` once per page for the same four groups) and reduced
# eleven times where six inputs are distinct (``avg(x)`` recomputed
# ``sum(x)``, four identical counts).  A reduction is one ``grouped_sum``
# / ``grouped_count`` call or one ``np.bincount`` made outside them.
def aggregation_work(monkeypatch, catalog, name):
    """Run one query on 1024-row pages (so operators see several);
    returns one record per ``PartialAggOperator`` that saw a page."""
    records: dict[int, dict] = {}
    current: list[dict] = []
    inside = [0]

    def count(key):
        if current:
            current[-1][key] += 1

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            if not inside[0]:
                count(key)
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    process = aggregation.PartialAggOperator.process
    accumulate = aggregation._HashAggState.accumulate
    group_codes = aggregation.group_codes

    def recording_process(self, page):
        if page.is_end:
            return process(self, page)
        record = records.setdefault(
            id(self), {"pages": 0, "learning": 0, "group_codes": 0, "reductions": 0}
        )
        record["pages"] += 1
        current.append(record)
        try:
            return process(self, page)
        finally:
            current.pop()

    def recording_accumulate(self, *args):
        before = len(self)
        accumulate(self, *args)
        if len(self) > before:
            count("learning")

    monkeypatch.setattr(aggregation.PartialAggOperator, "process", recording_process)
    monkeypatch.setattr(aggregation._HashAggState, "accumulate", recording_accumulate)
    # Grouping a page's new keys is not a reduction.
    monkeypatch.setattr(aggregation, "group_codes", counting(group_codes, "group_codes"))
    for kernel in ("grouped_sum", "grouped_count"):
        monkeypatch.setattr(
            aggregation, kernel, counting(getattr(aggregation, kernel), "reductions")
        )
    monkeypatch.setattr(np, "bincount", counting(np.bincount, "reductions"))
    engine = make_engine(catalog, page_row_limit=1024)
    assert engine.submit(TPCH_QUERIES[name]).result().rows
    monkeypatch.undo()
    return list(records.values())


@pytest.mark.parametrize("name, distinct_inputs", [("Q1", 6), ("Q6", 1)])
def test_partial_aggregation_groups_and_reduces_once(
    catalog, monkeypatch, name, distinct_inputs
):
    records = aggregation_work(monkeypatch, catalog, name)
    assert sum(r["pages"] for r in records) >= 25
    for record in records:
        assert record["group_codes"] <= record["learning"] <= record["pages"]
        assert record["reductions"] <= distinct_inputs * record["pages"]
    # The bound bites: most pages bring no new group.
    assert sum(r["learning"] for r in records) < sum(r["pages"] for r in records) / 2
    assert records == aggregation_work(monkeypatch, catalog, name)


# -- hash operators: host work follows what a page changes ------------------------
#
# Counts once more.  The page-local regime used to probe its key dict
# with one Python-level ``dict.get`` per group of the page (Q18: every
# page brings hundreds of new keys), and every probe page paid the CSR
# expansion although most builds hold each key once (the PK side).
def page_local_events(key_columns, distinct):
    """Python + C calls (``sys.setprofile``) made inside ``accumulate``
    by each of two page-local pages of ``distinct`` distinct keys, the
    second sharing half of them with the first."""
    value = InputRef(key_columns, ColumnType.FLOAT64)
    state = aggregation._HashAggState(
        [AggregateCall("sum", value, ColumnType.FLOAT64), AggregateCall("count", None, ColumnType.INT64)]
    )
    state._stop_packing()
    rng = np.random.default_rng(distinct)
    events = []
    for start in (0, distinct // 2):
        ids = rng.permutation(np.arange(start, start + distinct))
        keys = [ids * 7] + [ids % (3 + c) for c in range(1, key_columns)]
        calls = [0]

        def count(frame, event, arg):
            calls[0] += event in ("call", "c_call")

        inputs = [rng.normal(size=distinct), None]
        gc.disable()  # a collection would call hypothesis' gc callback
        sys.setprofile(count)
        try:
            state.accumulate(keys, distinct, inputs)
        finally:
            sys.setprofile(None)
            gc.enable()
        events.append(calls[0])
    assert len(state) == distinct + distinct // 2
    return events


@pytest.mark.parametrize("key_columns", [1, 5])
def test_page_local_aggregation_never_iterates_groups_in_python(key_columns):
    small, large = page_local_events(key_columns, 512), page_local_events(key_columns, 4096)
    # A constant per page (78 single-column, 150 five-column when written),
    # not one event per group: 8x the keys is the same number of calls.
    assert max(small + large) <= 250
    assert max(large) <= max(small) + 16


def test_a_page_merges_into_a_large_state_at_the_cost_of_the_page(monkeypatch):
    """A table-path page touching few of many held groups reduces over
    its own groups: no ``bincount`` / ``np.full`` longer than the page,
    however many groups the state holds (a pass over ``len(state)`` per
    field would cost O(groups held) per page)."""
    v, w = InputRef(1, ColumnType.FLOAT64), InputRef(2, ColumnType.INT64)
    calls = [
        AggregateCall("sum", v, ColumnType.FLOAT64), AggregateCall("count", None, ColumnType.INT64),
        AggregateCall("min", v, ColumnType.FLOAT64), AggregateCall("max", w, ColumnType.INT64),
        AggregateCall("avg", w, ColumnType.FLOAT64),
    ]
    state = aggregation._HashAggState(calls)
    fields = aggregation._field_input_evaluator(calls)
    rng = np.random.default_rng(5)

    def page(keys):
        n = len(keys)
        return Page(Schema.of(("k", ColumnType.INT64), ("v", ColumnType.FLOAT64), ("w", ColumnType.INT64)),
                    [keys, rng.normal(size=n), rng.integers(-100, 100, size=n)])

    held = 1 << 16
    big = page(rng.permutation(held))
    state.accumulate([big.columns[0]], held, fields(big))
    lengths = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            lengths.append(len(out))
            return out

        return wrapper

    monkeypatch.setattr(np, "bincount", recording(np.bincount))
    monkeypatch.setattr(np, "full", recording(np.full))
    small = page(rng.integers(0, held, size=256))
    state.accumulate([small.columns[0]], 256, fields(small))
    monkeypatch.undo()
    assert len(state) == held and state._table is not None
    assert lengths and max(lengths) <= 4 * 256 + 1024  # a dense page's bincount


def test_dense_integer_keys_keep_the_slot_table(catalog, monkeypatch):
    """Q18's group by ``l_orderkey`` (dense, wider than any one page)
    stays on the table in both stages; only the five-key group, which
    carries a float, reaches a key dict."""
    reached, tables = [], []
    dict_slots, table_slots = (
        aggregation._HashAggState._dict_slots, aggregation._HashAggState._table_slots
    )

    def recording_dict_slots(self, keys, uniques):
        reached.append(len(uniques))
        return dict_slots(self, keys, uniques)

    def recording_table_slots(self, packed, key_cols):
        tables.append(len(key_cols))
        return table_slots(self, packed, key_cols)

    monkeypatch.setattr(aggregation._HashAggState, "_dict_slots", recording_dict_slots)
    monkeypatch.setattr(aggregation._HashAggState, "_table_slots", recording_table_slots)
    assert make_engine(catalog).submit(TPCH_QUERIES["Q18"]).result().rows
    monkeypatch.undo()
    assert reached and set(reached) == {5}
    assert tables.count(1) >= 10


def test_the_oracle_groups_with_its_own_code():
    """``repro.reference`` checks the aggregation kernels by a second
    route: it imports none of them."""
    source = (Path(repro.__file__).parent / "reference.py").read_text(encoding="utf-8")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {n for n in imported if n == "group_codes" or n.startswith("grouped_")}
    assert "sql.functions" not in source


def probe_expansions(monkeypatch, catalog, name):
    """Run one query; returns what its probes did: pages expanded, the
    ``np.repeat`` / ``np.cumsum`` calls made from ``expand_matches``
    (the CSR expansion) and whether each index built held unique keys."""
    work = {"pages": 0, "repeat": 0, "cumsum": 0, "unique": {}}
    inside = [False]
    expand_matches = join._BuildIndex.expand_matches

    def recording_expand(self, gids):
        work["pages"] += 1
        work["unique"][id(self)] = self.unique
        inside[0] = True
        try:
            return expand_matches(self, gids)
        finally:
            inside[0] = False

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            work[key] += inside[0]
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(join._BuildIndex, "expand_matches", recording_expand)
    monkeypatch.setattr(np, "repeat", counting(np.repeat, "repeat"))
    monkeypatch.setattr(np, "cumsum", counting(np.cumsum, "cumsum"))
    engine = make_engine(catalog, page_row_limit=1024)
    assert engine.submit(TPCH_QUERIES[name]).result().rows
    monkeypatch.undo()
    work["unique"] = sorted(work["unique"].values())
    return work


@pytest.mark.parametrize("name, duplicate_key_builds", [("Q9", 0), ("Q18", 0), ("Q5", 2)])
def test_probes_of_unique_builds_skip_the_csr_expansion(
    catalog, monkeypatch, name, duplicate_key_builds
):
    work = probe_expansions(monkeypatch, catalog, name)
    assert work["pages"] >= 20, "the query must exercise its probes"
    assert work["unique"].count(False) == duplicate_key_builds
    assert work["unique"].count(True) >= 2
    # Only pages probing a duplicate-key build expand: 3 repeats + 1 cumsum.
    assert (work["repeat"] > 0) == (work["cumsum"] > 0) == bool(duplicate_key_builds)
    assert work["repeat"] == 3 * work["cumsum"] < 3 * work["pages"]
    assert work == probe_expansions(monkeypatch, catalog, name)


# -- one execution path per operator ------------------------------------------
def test_no_offload_fork_in_the_engine_or_its_operators():
    """Every operator has one ``process()`` body: the per-kernel worker
    offload is gone (DESIGN.md §15), and nothing on the engine side of
    ``repro.parallel`` may mention it again without this failing."""
    src = Path(repro.__file__).parent
    packages = ("exec", "sql", "sim", "obs", "pages", "buffers", "cluster")
    files = [src / "engine.py"]
    for package in packages:
        files += sorted((src / package).rglob("*.py"))
    assert [
        str(path.relative_to(src))
        for path in files
        if "offload" in path.read_text(encoding="utf-8").lower()
    ] == []
    constructors = [getattr(operators, name) for name in operators.__all__]
    for cls in constructors + [SpillPartitions]:
        assert "offload" not in inspect.signature(cls.__init__).parameters, cls


def test_expressions_have_one_evaluation_path():
    """An engine evaluates an expression one way — compiled (DESIGN.md
    §10): no operator takes a ``compiled`` switch, no config field selects
    one, and only the expression layer itself and the oracle may call
    ``.evaluate(`` (the interpreter stays the reference and the folder)."""
    for name in operators.__all__:
        cls = getattr(operators, name)
        assert "compiled" not in inspect.signature(cls.__init__).parameters, cls
    assert not hasattr(repro.EngineConfig(), "compiled_expressions")
    src = Path(repro.__file__).parent
    callers = {
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if ".evaluate(" in path.read_text(encoding="utf-8")
    }
    assert callers <= {
        "sql/expressions.py", "sql/compiler.py", "sql/analyzer.py", "reference.py"
    }


def test_elastic_capacity_protocol_is_written_once():
    """The §4.2.2 doubling / periodic-resize arithmetic lives in exactly
    one class under ``buffers/``; output and exchange buffers call it."""
    owners = set()
    for path in sorted((Path(repro.__file__).parent / "buffers").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                body = ast.get_source_segment(source, node)
                if "capacity * 2" in body or "RESIZE_PERIOD" in body:
                    owners.add(node.name)
    assert owners == {"ElasticCapacity"}


def test_page_hand_off_protocol_is_owned_by_the_output_buffers():
    """An exchange client knows ``take`` / ``wait`` and no producer
    internal; in-flight shuffle work is asked after through
    ``when_drained``; each distribution is a class, not a ``self.mode``
    branch (GATHER's single-consumer check is the one test left); and
    the count-then-resize tail of ``take`` is written once."""
    src = Path(repro.__file__).parent
    client = (src / "exec" / "exchange_client.py").read_text(encoding="utf-8")
    for internal in (".consumers", "queue.pages", "on_update", "on_consumer_added", "has_data"):
        assert internal not in client, internal
    assert [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if "_pending_shuffles" in path.read_text(encoding="utf-8")
    ] == ["buffers/output.py"]
    output = (src / "buffers" / "output.py").read_text(encoding="utf-8")
    assert [
        line.strip() for line in output.splitlines() if "self.mode" in line and "=" not in line
    ] == ["if self.mode is OutputMode.GATHER and self.consumers:"]
    assert output.count("capacity.consumed(") == output.count("resize_if_due(") == 1
    assert "turn_up" not in output.replace("turns its capacity *up*", "")


# -- one sampler ------------------------------------------------------------------
#: ``repro.autotune.__all__`` before the §5 loop became one sampler and one
#: tuner; the package may only lose names.
AUTOTUNE_NAMES = {
    "Bottleneck", "DopAutoTuner", "DopPlan", "DopPlanner", "ElasticQuery",
    "RuntimeInfoCollector", "Snapshot", "StageSample", "TuningRequestFilter",
    "TuningUnit", "WhatIfEstimate", "WhatIfService", "find_bottlenecks",
    "remaining_seconds", "tuning_units",
}


def test_stages_are_sampled_by_one_class():
    """Outside ``cluster/stage.py`` exactly one class calls
    ``StageExecution.sample()``: a second periodic stage reader cannot
    come back unnoticed (DESIGN.md §10.1)."""
    src = Path(repro.__file__).parent
    readers = set()
    for path in sorted(src.rglob("*.py")):
        rel = str(path.relative_to(src))
        if rel == "cluster/stage.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sample"
                    and not node.args
                    and not node.keywords
                ):
                    readers.add(f"{rel}:{cls.name}")
    assert readers == {"obs/throughput.py:Sampler"}
    # The package re-exports nothing since its modules load on first use.
    autotune = importlib.import_module("repro.autotune")
    assert set(getattr(autotune, "__all__", ())) <= AUTOTUNE_NAMES


# -- one tree protocol, one structural key --------------------------------------
def test_trees_are_descended_and_keyed_in_one_place():
    """``repro/tree.py`` is the only module that reflects over dataclass
    fields; each tree family inherits its one ``children()`` /
    ``pretty()`` from it; and the second rendering of every node kind —
    the per-kind key functions and the hand-rolled descents — stays gone
    (DESIGN.md §20)."""
    src = Path(repro.__file__).parent
    sources = {
        str(path.relative_to(src)): path.read_text(encoding="utf-8")
        for path in src.rglob("*.py")
    }

    def mentioning(*needles):
        return {
            name for name, text in sources.items() if any(n in text for n in needles)
        }

    assert mentioning("dataclasses.fields(", "__dataclass_fields__") == {"tree.py"}
    assert mentioning("def children(", "def pretty(") == {"tree.py"}
    assert mentioning(
        "expr_key", "plan_key", "agg_key", "_rebase_value", "_transform_value",
        "_ast_rebuild", "options_template",
    ) == set()
    assert "key=repr" not in sources["sharing/manager.py"]
    # The plan-shaping options are listed once, in ``PLAN_SHAPING``.
    assert "broadcast_threshold_rows" not in sources["predict/fingerprint.py"]
    families = [
        repro.sql.ast.ExprNode, repro.sql.expressions.BoundExpr,
        repro.plan.logical.LogicalNode, repro.plan.physical.PNode,
    ]
    for family in families:
        assert family.family is family and family.children is repro.tree.Tree.children
    assert repro.QueryOptions().fingerprint() == repro.tree.identity(repro.QueryOptions())


# -- one timed-action plan, one applier ----------------------------------------------
#: ``repro.__all__`` before fault plans, churn plans and script ``at`` lines
#: became one ``Plan``, less the three names deleted later with what they
#: served: the no-spill mode's error, a third fingerprint spelling and a
#: curve downsampler nothing called.
PUBLIC_NAMES_BEFORE_PLAN = {
    "AccordionEngine", "AccordionError", "Autoscaler", "BufferConfig", "Catalog",
    "ClosedLoop", "ClusterConfig", "ClusterMembership", "CostModel", "Decision",
    "DopPlanner", "EVAL_SCALE", "EVAL_SEED", "EngineConfig", "ExecutionError",
    "FaultConfig", "FaultInjector", "FaultPlan", "MembershipPlan",
    "MemoryConfig", "MetricsRegistry", "NodeCrash",
    "NodeDrain", "NodeJoin", "NodeSpec", "OutputMode", "ParallelConfig",
    "PoissonArrivals", "Prediction", "PredictionConfig", "ProfileReport",
    "QueryCancelledError", "QueryFailedError", "QueryHandle", "QueryOptions",
    "QueryRejectedError", "QueryResult", "QueryTrace", "RpcOutage", "RpcStorm",
    "STANDALONE_BENCHMARK", "ScriptResult", "Session", "SharingConfig", "SharingInfo",
    "SplitLayout", "SpotPreemption", "SqlError", "StageDemand", "TPCH_QUERIES",
    "TPCH_SCHEMAS", "TaskCrash", "TpchGenerator", "TraceArrivals", "TraceConfig",
    "Tracer", "TuningRejected", "WorkerCrashedError", "Workload", "WorkloadConfig",
    "WorkloadReport", "eval_config", "eval_engine",
    "prestissimo_config", "presto_config", "read_csv", "render_series",
    "render_table", "run_script", "shuffle_experiment_engine",
    "standalone_engine", "write_csv",
}


def test_timed_actions_have_one_applier():
    """Only ``repro.script.plan`` schedules a plan's events (DESIGN.md
    §7): fault recovery, membership and the script executor schedule no
    instant of their own, and the public surface traded the three plan /
    injector classes for ``Plan`` (and later lost ``FaultConfig`` and
    ``NodeSpec``, whose fields became module constants)."""
    src = Path(repro.__file__).parent
    files = sorted((src / "faults").rglob("*.py"))
    files += [src / "cluster" / "membership.py", src / "script" / "executor.py"]
    assert [
        str(path.relative_to(src))
        for path in files
        if "schedule_at" in path.read_text(encoding="utf-8")
    ] == []
    assert len(repro.__all__) == len(set(repro.__all__)) == 68
    assert set(repro.__all__) ^ PUBLIC_NAMES_BEFORE_PLAN == {
        "FaultInjector", "FaultPlan", "MembershipPlan", "Plan",
        "FaultConfig", "NodeSpec",
    }
    assert "Plan" in repro.__all__


# -- the quantum cycle: calls per quantum, and none per event for a wait ---------
#
# Counts once more (``sys.setprofile``, Python and C calls alike).  A
# quantum used to pass through about ten frames of its own (acquire ->
# push -> start -> run -> quantum -> chain -> sink cost, then complete ->
# commit -> quantum done -> enqueue), and ``handle.wait`` / ``result()``
# called a stop predicate before every event (DESIGN.md §10.1).

#: What the dispatch loop calls on its own queues.
QUEUE_OPS = ("heappop", "popleft")


class _Relay(operators.base.TransformOperator):
    """Hands its page on at no cost: the chain of one transform."""

    def process(self, page):
        return [page], 0.0


def counted_calls(fn, frames=None) -> int:
    """Calls made while ``fn()`` runs; ``frames(frame, event, arg)``, when
    given, decides which of them count."""
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call") and (frames is None or frames(frame, event, arg)):
            calls[0] += 1

    gc.disable()  # a collection would call hypothesis' gc callback
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls[0]


def test_a_quantum_on_an_idle_core_is_a_few_frames():
    """One steady-state cycle of a plain driver (exchange source, one
    transform, local exchange sink) on an idle core: the event that
    commits quantum k also grants, runs and posts quantum k + 1."""
    from repro.buffers import LocalExchange
    from repro.config import BufferConfig, CostModel
    from repro.exec.driver import Driver
    from repro.exec.operators.sinks import LocalExchangeSink
    from repro.exec.operators.sources import ExchangeSource
    from repro.sim import CpuPool, SimKernel

    kernel, cost = SimKernel(), CostModel()
    client = ExchangeClient(kernel, BufferConfig(), cost, node=None, name="x")
    page = Page.from_rows(Schema.of(("k", ColumnType.INT64)), [(1,), (2,)])
    for _ in range(8):
        client.buffer.put(page)
    task = SimpleNamespace(
        kernel=kernel, cost=cost, crashed=False, inflight_quanta=0,
        drain_callbacks=[], quantum_done=lambda: None,
        node=SimpleNamespace(name="n0", cpu=CpuPool(kernel, 4)),
    )
    driver = Driver(
        task, 0, 0, ExchangeSource(cost, client), [_Relay(cost)],
        LocalExchangeSink(cost, LocalExchange("out")),
    )
    driver.start()  # quantum 1 runs on the idle core at once

    def next_event():  # its completion is the one pending event
        kernel.run(until=kernel._heap[0][0])

    for _ in range(2):  # settle the receive buffer's elastic capacity
        next_event()
    # Not counted: the loop's own queue pops.
    loop = kernel.run.__func__.__code__
    calls = counted_calls(next_event, lambda frame, event, arg: not (
        event == "c_call" and frame.f_code is loop and arg.__name__ in QUEUE_OPS
    ))
    assert driver.quanta == 4 and kernel.events_processed == 3
    # 38 before the step was bound; 24 when written: the helper, the run,
    # the pool's release and grant, the commit, the step, the kernel's post
    # and its push (eight), and the receive buffer's poll, the relay, the
    # sink's put and what those call.
    assert calls <= 24, calls


def test_waiting_on_a_handle_makes_no_call_but_the_event_callbacks(catalog):
    engine = make_engine(catalog)
    handle = engine.submit(TPCH_QUERIES["Q6"])
    loop = engine.kernel.run.__func__.__code__
    before = engine.kernel.events_processed
    # Calls the dispatch loop makes itself: every event's callback (a
    # Python frame whose caller is the loop, or a builtin it calls), and
    # the queue pops; before, also one stop predicate per event.
    calls = counted_calls(
        handle.wait,
        lambda frame, event, arg: (
            frame.f_back is not None and frame.f_back.f_code is loop
            if event == "call"
            else frame.f_code is loop and getattr(arg, "__name__", "") not in QUEUE_OPS
        ),
    )
    assert handle.succeeded
    assert calls == engine.kernel.events_processed - before
