"""Unit tests for physical operators (transform semantics + end relay)."""

import numpy as np
import pytest

from repro.config import CostModel
from repro.exec.operators.aggregation import FinalAggOperator, PartialAggOperator
from repro.exec.operators.basic import FilterOperator, LimitOperator, ProjectOperator
from repro.exec.operators.join import HashJoinProbeOperator, JoinBridge, JoinBuildSink
from repro.exec.operators.sorting import SortOperator, TopNOperator
from repro.pages import ColumnType, Page, Schema
from repro.plan.logical import JoinType
from repro.plan.physical import partial_agg_schema
from repro.sim import SimKernel
from repro.sql.expressions import AggregateCall, Comparison, InputRef

INT = ColumnType.INT64
FLT = ColumnType.FLOAT64
STR = ColumnType.STRING
COST = CostModel()

KV = Schema.of(("k", INT), ("v", FLT))


def kv_page(pairs):
    return Page.from_rows(KV, pairs)


def drain(op, pages):
    """Feed pages then an end page; returns (data rows, saw_end)."""
    out_rows = []
    saw_end = False
    for p in list(pages) + [Page.end()]:
        outs, cost = op.process(p)
        assert cost >= 0
        for o in outs:
            if o.is_end:
                saw_end = True
            else:
                out_rows.extend(o.rows())
    return out_rows, saw_end


# -- filter / project / limit ---------------------------------------------------
def test_filter_operator():
    pred = Comparison(">", InputRef(0, INT), InputRef(1, FLT))
    op = FilterOperator(COST, pred)
    rows, end = drain(op, [kv_page([(1, 5.0), (7, 2.0)])])
    assert rows == [(7, 2.0)]
    assert end


def test_filter_all_pass_returns_same_page():
    pred = Comparison(">", InputRef(0, INT), InputRef(1, FLT))
    op = FilterOperator(COST, pred)
    page = kv_page([(9, 1.0)])
    outs, _ = op.process(page)
    assert outs[0] is page


def test_project_operator():
    from repro.sql.expressions import Arithmetic, Constant

    expr = Arithmetic("*", InputRef(0, INT), Constant(2, INT), INT)
    op = ProjectOperator(COST, [expr], Schema.of(("dbl", INT)))
    rows, _ = drain(op, [kv_page([(3, 0.0), (4, 0.0)])])
    assert rows == [(6,), (8,)]


def test_limit_truncates_and_finishes_early():
    op = LimitOperator(COST, 3)
    outs, _ = op.process(kv_page([(i, 0.0) for i in range(5)]))
    assert outs[0].num_rows == 3
    assert op.done_early


def test_limit_across_pages():
    op = LimitOperator(COST, 3)
    a, _ = op.process(kv_page([(1, 0.0), (2, 0.0)]))
    b, _ = op.process(kv_page([(3, 0.0), (4, 0.0)]))
    assert a[0].num_rows == 2 and b[0].num_rows == 1


def test_satisfied_limit_sends_its_last_page_down_the_rest_of_the_chain():
    """Limit -> Project -> PartialAgg in one driver: the page that
    satisfies the limit is projected and aggregated like any other, and
    the end page follows *behind* it (before ISSUE 20 the end relay
    started ahead of that page, which then reached the sink unprojected
    and unaggregated)."""
    from types import SimpleNamespace

    from repro.exec.driver import Driver
    from repro.exec.operators.base import SinkOperator
    from repro.sql.expressions import Arithmetic, Constant

    doubled = Schema.of(("dbl", INT))
    count = [AggregateCall("count", None, INT), AggregateCall("sum", InputRef(0, INT), INT)]
    agg_schema = partial_agg_schema(doubled, [], count)
    task = SimpleNamespace(
        kernel=SimKernel(), cost=COST, node=SimpleNamespace(name="n0"), query_id=None
    )

    def run(*transforms):
        driver = Driver(
            task, 0, 0, source=None, sink=SinkOperator(COST), transforms=list(transforms)
        )
        emitted, finished = [], False
        for page in (kv_page([(1, 0.0), (2, 0.0)]), kv_page([(3, 0.0), (4, 0.0)])):
            assert not finished
            pages, _cost, finished = driver._run_chain(page)
            emitted.extend(pages)
        assert finished  # the limit ended the driver without an end from the source
        return emitted

    emitted = run(
        LimitOperator(COST, 3),
        ProjectOperator(
            COST, [Arithmetic("*", InputRef(0, INT), Constant(2, INT), INT)], doubled
        ),
        PartialAggOperator(COST, [], count, agg_schema),
    )
    assert [p.schema for p in emitted] == [agg_schema]
    assert emitted[0].rows() == [(3, 2 + 4 + 6)]
    # A chain of the limit alone: its last page is delivered, its end is not.
    emitted = run(LimitOperator(COST, 3))
    assert [p.is_end for p in emitted] == [False, False]
    assert [row[0] for p in emitted for row in p.rows()] == [1, 2, 3]


# -- aggregation -----------------------------------------------------------------
def agg_calls():
    return [
        AggregateCall("sum", InputRef(1, FLT), FLT),
        AggregateCall("count", None, INT),
        AggregateCall("avg", InputRef(1, FLT), FLT),
        AggregateCall("min", InputRef(1, FLT), FLT),
        AggregateCall("max", InputRef(1, FLT), FLT),
    ]


def test_partial_then_final_aggregation_grouped():
    calls = agg_calls()
    pschema = partial_agg_schema(KV, [0], calls)
    partial = PartialAggOperator(COST, [0], calls, pschema)
    data = [kv_page([(1, 2.0), (2, 4.0)]), kv_page([(1, 6.0), (2, 1.0), (1, 1.0)])]
    partial_rows, _ = drain(partial, data)
    assert len(partial_rows) == 2  # one state row per group

    out_schema = Schema.of(
        ("k", INT), ("s", FLT), ("c", INT), ("a", FLT), ("mn", FLT), ("mx", FLT)
    )
    final = FinalAggOperator(COST, 1, calls, out_schema)
    partial_page = Page.from_rows(pschema, partial_rows)
    rows, _ = drain(final, [partial_page])
    by_key = {r[0]: r[1:] for r in rows}
    assert by_key[1] == (9.0, 3, 3.0, 1.0, 6.0)
    assert by_key[2] == (5.0, 2, 2.5, 1.0, 4.0)


def test_final_merges_partials_from_multiple_drivers():
    calls = [AggregateCall("sum", InputRef(1, FLT), FLT)]
    pschema = partial_agg_schema(KV, [0], calls)
    p1 = PartialAggOperator(COST, [0], calls, pschema)
    p2 = PartialAggOperator(COST, [0], calls, pschema)
    rows1, _ = drain(p1, [kv_page([(1, 1.0)])])
    rows2, _ = drain(p2, [kv_page([(1, 2.0)])])
    final = FinalAggOperator(COST, 1, calls, Schema.of(("k", INT), ("s", FLT)))
    rows, _ = drain(final, [Page.from_rows(pschema, rows1 + rows2)])
    assert rows == [(1, 3.0)]


def test_partial_agg_flushes_on_group_limit():
    calls = [AggregateCall("count", None, INT)]
    pschema = partial_agg_schema(KV, [0], calls)
    op = PartialAggOperator(COST, [0], calls, pschema, group_limit=5)
    outs, _ = op.process(kv_page([(i, 0.0) for i in range(10)]))
    assert sum(p.num_rows for p in outs) == 10  # state destroyed mid-stream
    assert len(op.state) == 0


def test_global_aggregate_empty_input():
    calls = [
        AggregateCall("sum", InputRef(1, FLT), FLT),
        AggregateCall("count", None, INT),
    ]
    pschema = partial_agg_schema(KV, [], calls)
    final = FinalAggOperator(COST, 0, calls, Schema.of(("s", FLT), ("c", INT)))
    rows, end = drain(final, [])
    assert rows == [(None, 0)]  # SQL: sum over no rows is NULL
    assert end


def test_grouped_aggregate_empty_input_returns_no_rows():
    calls = [AggregateCall("count", None, INT)]
    pschema = partial_agg_schema(KV, [0], calls)
    final = FinalAggOperator(COST, 1, calls, Schema.of(("k", INT), ("c", INT)))
    rows, _ = drain(final, [])
    assert rows == []


def test_count_int_result_type():
    calls = [AggregateCall("sum", InputRef(0, INT), INT)]
    pschema = partial_agg_schema(KV, [], calls)
    partial = PartialAggOperator(COST, [], calls, pschema)
    prow, _ = drain(partial, [kv_page([(1, 0.0), (2, 0.0)])])
    final = FinalAggOperator(COST, 0, calls, Schema.of(("s", INT)))
    rows, _ = drain(final, [Page.from_rows(pschema, prow)])
    assert rows == [(3,)] and isinstance(rows[0][0], int)


# -- hash join -----------------------------------------------------------------
BUILD = Schema.of(("bk", INT), ("bv", STR))


def make_bridge(rows, keys=(0,)):
    kernel = SimKernel()
    bridge = JoinBridge(kernel, BUILD, list(keys))
    sink = JoinBuildSink(COST, bridge)
    sink.deliver([Page.from_rows(BUILD, rows)] if rows else [])
    sink.driver_finished()
    return bridge


def test_bridge_lifecycle():
    kernel = SimKernel()
    bridge = JoinBridge(kernel, BUILD, [0])
    sink = JoinBuildSink(COST, bridge)
    assert not bridge.ready
    sink.deliver([Page.from_rows(BUILD, [(1, "a")])])
    sink.driver_finished()
    assert bridge.ready
    assert bridge.build_rows == 1


def test_inner_join_probe():
    bridge = make_bridge([(1, "a"), (2, "b"), (2, "c")])
    out_schema = KV.concat(BUILD)
    probe = HashJoinProbeOperator(COST, bridge, JoinType.INNER, [0], None, out_schema)
    rows, _ = drain(probe, [kv_page([(1, 0.1), (2, 0.2), (3, 0.3)])])
    assert sorted(rows) == [(1, 0.1, 1, "a"), (2, 0.2, 2, "b"), (2, 0.2, 2, "c")]


def test_join_residual_filter():
    bridge = make_bridge([(1, "a"), (1, "zzz")])
    out_schema = KV.concat(BUILD)
    residual = Comparison("=", InputRef(3, STR), InputRef(3, STR))
    from repro.sql.expressions import Constant, LikeMatch

    residual = LikeMatch(InputRef(3, STR), "z%")
    probe = HashJoinProbeOperator(COST, bridge, JoinType.INNER, [0], residual, out_schema)
    rows, _ = drain(probe, [kv_page([(1, 0.5)])])
    assert rows == [(1, 0.5, 1, "zzz")]


def test_semi_and_anti_join():
    bridge = make_bridge([(1, "a")])
    semi = HashJoinProbeOperator(COST, bridge, JoinType.SEMI, [0], None, KV)
    rows, _ = drain(semi, [kv_page([(1, 0.1), (2, 0.2)])])
    assert rows == [(1, 0.1)]
    anti = HashJoinProbeOperator(COST, bridge, JoinType.ANTI, [0], None, KV)
    rows, _ = drain(anti, [kv_page([(1, 0.1), (2, 0.2)])])
    assert rows == [(2, 0.2)]


def test_cross_join():
    bridge = make_bridge([(1, "a"), (2, "b")])
    out_schema = KV.concat(BUILD)
    cross = HashJoinProbeOperator(COST, bridge, JoinType.CROSS, [], None, out_schema)
    rows, _ = drain(cross, [kv_page([(9, 0.9)])])
    assert sorted(rows) == [(9, 0.9, 1, "a"), (9, 0.9, 2, "b")]


def test_probe_against_empty_build():
    bridge = make_bridge([])
    probe = HashJoinProbeOperator(
        COST, bridge, JoinType.INNER, [0], None, KV.concat(BUILD)
    )
    rows, end = drain(probe, [kv_page([(1, 0.0)])])
    assert rows == [] and end


def test_probe_waits_for_bridge():
    kernel = SimKernel()
    bridge = JoinBridge(kernel, BUILD, [0])
    JoinBuildSink(COST, bridge)  # producer registered, never finishes
    probe = HashJoinProbeOperator(COST, bridge, JoinType.INNER, [0], None, KV.concat(BUILD))
    assert probe.waits_on() is bridge.on_ready


def test_build_seconds_measures_from_first_page():
    kernel = SimKernel()
    bridge = JoinBridge(kernel, BUILD, [0])
    sink = JoinBuildSink(COST, bridge)
    kernel.now = 10.0
    sink.deliver([Page.from_rows(BUILD, [(1, "a")])])
    kernel.now = 12.5
    sink.driver_finished()
    assert bridge.build_seconds == pytest.approx(2.5)


# -- sorting -----------------------------------------------------------------
def test_topn_operator():
    op = TopNOperator(COST, KV, 2, [(1, False)])
    rows, _ = drain(op, [kv_page([(1, 5.0), (2, 9.0)]), kv_page([(3, 7.0)])])
    assert rows == [(2, 9.0), (3, 7.0)]


def test_topn_compacts_incrementally():
    op = TopNOperator(COST, KV, 1, [(0, True)], row_limit=4)
    for i in range(30):
        op.process(kv_page([(i, 0.0)]))
    rows, _ = drain(op, [])
    assert rows == [(0, 0.0)]


def test_sort_operator_multi_key():
    schema = Schema.of(("a", INT), ("b", STR))
    op = SortOperator(COST, schema, [(1, True), (0, False)])
    data = Page.from_rows(schema, [(1, "y"), (3, "x"), (2, "x")])
    rows = []
    for p, _ in [op.process(data)] + [op.process(Page.end())]:
        for out in p:
            if not out.is_end:
                rows.extend(out.rows())
    assert rows == [(3, "x"), (2, "x"), (1, "y")]
