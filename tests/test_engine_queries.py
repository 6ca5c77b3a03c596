"""End-to-end: every supported query through the distributed engine must
equal the reference executor (the engine's central correctness contract)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro import AccordionEngine, EngineConfig, QueryOptions
from repro.data.tpch.queries import QUERIES, STANDALONE_BENCHMARK
from repro.pages import ColumnType, DictColumn, MaskedColumn, Page, Schema
from repro.plan import LogicalPlanner, prune_columns
from repro.reference import execute_reference
from repro.sql.parser import parse

from conftest import builds_ready, norm_rows, run_until_cond, slow_engine


def reference_result(catalog, sql):
    plan = prune_columns(LogicalPlanner(catalog).plan(parse(sql)))
    return execute_reference(plan, catalog)


@pytest.fixture(scope="module")
def reference_results(catalog):
    return {name: reference_result(catalog, sql) for name, sql in QUERIES.items()}


@pytest.mark.parametrize("name", sorted(STANDALONE_BENCHMARK))
def test_tpch_query_matches_reference(catalog, reference_results, name):
    engine = AccordionEngine(catalog)
    result = engine.execute(QUERIES[name], max_virtual_seconds=1e5)
    expected = reference_results[name]
    assert norm_rows(result.rows) == norm_rows(expected.rows())
    assert result.columns == expected.schema.names()


#: SQL shapes no TPC-H text has, each diffed against the oracle like the
#: TPC-H texts above.  Checking mechanisms against an independent answer
#: is how the LIMIT bug of ISSUE 20 was found: a satisfied LIMIT started
#: the end relay ahead of its own last page, so that page skipped every
#: transform after it (the five ``limit_under_*`` shapes; wrong at the
#: parent commit: 14 and 145,803 for the counts, unprojected and
#: unfiltered 1s, ``tuple index out of range`` for the grouped one).
SQL_SHAPES = {
    "limit_under_global_agg_10": (
        "select count(*) as c from (select l_orderkey from lineitem limit 10) t"
    ),
    "limit_under_global_agg_5000": (
        "select count(*) as c from (select l_orderkey from lineitem limit 5000) t"
    ),
    "limit_under_grouped_agg": (
        "select l_returnflag, count(*) as c "
        "from (select l_returnflag from lineitem limit 10) t group by l_returnflag"
    ),
    "limit_under_projection": (
        "select l_orderkey + 1 as k from (select l_orderkey from lineitem limit 5) t"
    ),
    "limit_under_filter": (
        "select l_orderkey from (select l_orderkey from lineitem limit 5) t "
        "where l_orderkey > 1"
    ),
    "limit_plain": "select l_orderkey from lineitem limit 5",
    "limit_zero": "select l_orderkey from lineitem limit 0",
    "limit_larger_than_table": "select n_name from nation limit 1000",
    "limit_after_order_by": (
        "select o_orderkey, o_totalprice from orders "
        "order by o_totalprice desc, o_orderkey limit 7"
    ),
    "global_agg_over_empty_input": (
        "select count(*) as c, sum(l_quantity) as s, avg(l_quantity) as a, "
        "sum(l_linenumber) as n from lineitem where l_quantity < 0"
    ),
    "grouped_agg_over_empty_input": (
        "select l_returnflag, count(*) as c from lineitem "
        "where l_quantity < 0 group by l_returnflag"
    ),
    "string_min_max": "select min(n_name) as lo, max(n_name) as hi from nation",
    "count_distinct": "select count(distinct l_suppkey) as c from lineitem",
    "count_distinct_grouped": (
        "select l_returnflag, count(distinct l_shipmode) as c "
        "from lineitem group by l_returnflag"
    ),
    "modulo_group_key": (
        "select l_orderkey % 7 as k, count(*) as c from lineitem "
        "group by l_orderkey % 7"
    ),
    "concat_group_key": (
        "select l_returnflag || l_linestatus as k, sum(l_quantity) as q "
        "from lineitem group by l_returnflag || l_linestatus"
    ),
    "case_group_key": (
        "select case when l_quantity > 25 then 'big' else 'small' end as sz, "
        "count(*) as c from lineitem "
        "group by case when l_quantity > 25 then 'big' else 'small' end"
    ),
    "extract_group_key": (
        "select extract(year from o_orderdate) as y, count(*) as c from orders "
        "group by extract(year from o_orderdate)"
    ),
    "in_subquery": (
        "select count(*) as c from orders where o_custkey in "
        "(select c_custkey from customer where c_mktsegment = 'BUILDING')"
    ),
    "not_in_subquery": (
        "select count(*) as c from supplier where s_suppkey not in "
        "(select l_suppkey from lineitem where l_quantity > 49)"
    ),
    "exists_subquery": (
        "select count(*) as c from orders o where exists (select * from lineitem l "
        "where l.l_orderkey = o.o_orderkey and l.l_quantity > 45)"
    ),
    "not_exists_subquery": (
        "select count(*) as c from customer c where not exists "
        "(select * from orders o where o.o_custkey = c.c_custkey)"
    ),
    "scalar_subquery_comparison": (
        "select count(*) as c from lineitem "
        "where l_quantity > (select avg(l_quantity) from lineitem)"
    ),
    "having": (
        "select l_suppkey, sum(l_quantity) as q from lineitem "
        "group by l_suppkey having sum(l_quantity) > 700"
    ),
    "self_join_with_residual": (
        "select count(*) as c from nation a, nation b "
        "where a.n_regionkey = b.n_regionkey and a.n_nationkey < b.n_nationkey"
    ),
    "cross_join": (
        "select count(*) as c, sum(r_regionkey * n_nationkey) as s from region, nation"
    ),
    "between_dates_with_interval": (
        "select count(*) as c from orders where o_orderdate between "
        "date '1994-01-01' and date '1994-01-01' + interval '3' month"
    ),
    "agg_over_aggregating_subquery": (
        "select max(q) as m, count(*) as c from (select l_orderkey, "
        "sum(l_quantity) as q from lineitem group by l_orderkey) t"
    ),
    "not_like_and_in_list": (
        "select count(*) as c from part "
        "where p_type not like '%BRASS' and p_size in (1, 5, 9)"
    ),
    "unary_minus_and_plus": (
        "select -l_quantity as q, +l_linenumber as n, - 2 as k from lineitem "
        "where -l_discount <= -0.09 and l_orderkey < 100"
    ),
    "unary_minus_in_aggregates": (
        "select sum(-l_quantity) as s, min(- l_extendedprice) as m from lineitem "
        "where + l_tax > -(-0.07)"
    ),
    "boolean_literals": (
        "select n_name from nation "
        "where true and not false and (n_nationkey > 20 or false)"
    ),
    # NULL (DESIGN.md §18): sum/min/max/avg over no value, CASE without
    # ELSE; the answers are pinned in NULL_ANSWERS below.
    "global_aggs_over_no_rows": (
        "select min(l_orderkey) as a, max(l_shipdate) as b, min(l_comment) as c, "
        "sum(l_quantity) as d, sum(l_orderkey) as e, avg(l_quantity) as f "
        "from lineitem where 1 = 0"
    ),
    "case_without_else_aggregates": (
        "select min(case when l_quantity > 10 then l_quantity end) as lo, "
        "avg(case when l_quantity > 10 then l_quantity end) as mean, "
        "count(case when l_quantity > 10 then 'x' end) as n, "
        "min(case when l_quantity > 10 then 'big' end) as s from lineitem"
    ),
    "case_without_else_is_null": (
        "select count(*) as c from lineitem "
        "where (case when l_quantity > 10 then l_quantity end) is null"
    ),
    "case_without_else_group_key": (
        "select case when l_quantity > 10 then 'big' end as sz, count(*) as c "
        "from lineitem group by case when l_quantity > 10 then 'big' end"
    ),
    "three_valued_logic": (
        "select count(*) as c from lineitem where not ("
        "(case when l_quantity > 10 then l_quantity end) > 20 and l_discount < 0.05) "
        "or (case when l_tax > 0.04 then l_tax end) < 0.06"
    ),
    "null_join_key_matches_nothing": (
        "select count(*) as c from orders, "
        "(select case when l_quantity > 45 then l_orderkey end as k from lineitem) t "
        "where t.k = o_orderkey"
    ),
}

#: Pinned answers of the NULL shapes on the test catalog (SF0.005, seed
#: 777: 30,258 lineitem rows, 24,204 with ``l_quantity > 10``), as SQLite
#: answers them (``test_null_shapes_match_sqlite``).  At the parent of the
#: change that gave NULL one representation each was wrong or failed: the
#: NaN sentinel, CASE's zero seed and ``count(x)`` counting NULLs.
NULL_ANSWERS = {
    "global_agg_over_empty_input": [(0, None, None, None)],
    "global_aggs_over_no_rows": [(None,) * 6],
    "case_without_else_aggregates": [(11.0, 30.428606841844324, 24204, "big")],
    "case_without_else_is_null": [(6054,)],
    "case_without_else_group_key": [(None, 6054), ("big", 24204)],
}

#: ``(sim.events_processed, engine.now)`` of the LIMIT shapes that were
#: right before ISSUE 20, recorded at its parent commit: deleting the
#: second end-of-chain path must not move them.
LIMIT_NEIGHBOURS = {
    "limit_plain": (9, 0.03877368319999999),
    "limit_zero": (7, 0.038771251199999995),
    "limit_larger_than_table": (13, 0.038833573999999996),
    "limit_after_order_by": (58, 0.048314472799999966),
}


@pytest.mark.parametrize("name", sorted(SQL_SHAPES))
def test_sql_shape_matches_reference(catalog, name):
    sql = SQL_SHAPES[name]
    expected = reference_result(catalog, sql)
    engine = AccordionEngine(catalog)
    result = engine.execute(sql, max_virtual_seconds=1e5)
    assert norm_rows(result.rows) == norm_rows(expected.rows())
    assert result.columns == expected.schema.names()
    if name in NULL_ANSWERS:
        assert norm_rows(result.rows) == norm_rows(NULL_ANSWERS[name])
    if name in LIMIT_NEIGHBOURS:
        assert (engine.kernel.events_processed, engine.now) == LIMIT_NEIGHBOURS[name]


@pytest.fixture()
def frozen_pages(monkeypatch):
    """Every column (a ``DictColumn``'s codes, a ``MaskedColumn``'s values
    and mask) of every ``Page`` constructed is read-only from then on;
    thawed again afterwards."""
    init, thaw = Page.__init__, []

    def freezing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for col in self.columns:
            parts = [col.values, col.valid] if isinstance(col, MaskedColumn) else [col]
            for part in parts:
                arr = part.codes if isinstance(part, DictColumn) else part
                if arr.flags.writeable:
                    arr.flags.writeable = False
                    thaw.append(arr)

    monkeypatch.setattr(Page, "__init__", freezing_init)
    yield
    for arr in thaw:
        arr.flags.writeable = True


def test_no_operator_writes_into_a_column_a_page_holds(catalog, frozen_pages, tmp_path):
    """A column is immutable once a ``Page`` holds it (DESIGN.md §10.1):
    that is what lets a page hand its column objects on — ``Page.slice``
    views, a probe page's columns passing through a join that changed
    nothing about them.  Every text, every shape, a spilling run and a
    mid-flight DOP switch complete with every page frozen."""
    column = np.arange(3)
    Page(Schema.of(("k", ColumnType.INT64)), [column])
    with pytest.raises(ValueError, match="read-only"):
        column[0] = 7
    for name, sql in sorted({**QUERIES, **SQL_SHAPES}.items()):
        assert AccordionEngine(catalog).execute(sql, max_virtual_seconds=1e5).columns, name
    budgeted = AccordionEngine(
        catalog,
        config=EngineConfig().with_memory(query_budget_bytes=200_000, spill_dir=str(tmp_path)),
    )
    assert budgeted.execute(QUERIES["Q18"], max_virtual_seconds=1e5).rows
    assert budgeted.metrics.snapshot()["spill.spills"] > 0
    engine = slow_engine(catalog)
    query = engine.submit(
        QUERIES["Q2J"], QueryOptions(join_distribution="partitioned", initial_stage_dop=2)
    )
    run_until_cond(engine, builds_ready(query, 1))
    assert query.tuning.ap(1, 4) is not None and not query.finished
    engine.run_until_done(query, 1e6)
    assert query.result().rows


def test_integer_sum_is_exact_beyond_float64(catalog):
    """INT64 sums are integer arithmetic.  The expected value is computed
    with python ints: the oracle imports the engine's ``grouped_sum``, so
    it agreed with the float64-rounded answer this used to give
    (…344798720 for …344801052 at SF0.01)."""
    orders = catalog.table("orders")
    cells = list(
        zip(
            orders.column("o_orderstatus").tolist(),
            orders.column("o_orderkey").tolist(),
            orders.column("o_custkey").tolist(),
        )
    )
    total = sum(key * cust * 100000003 for _, key, cust in cells)
    assert 2**53 < total < 2**63 and float(total) != total
    expr = "sum(o_orderkey * o_custkey * 100000003)"
    engine = AccordionEngine(catalog)
    assert engine.execute(f"select {expr} from orders").rows == [(total,)]
    grouped = f"select o_orderstatus, {expr} from orders group by o_orderstatus"
    expected = sorted(
        (status, sum(k * c * 100000003 for s, k, c in cells if s == status))
        for status in {s for s, _, _ in cells}
    )
    assert sorted(engine.execute(grouped).rows) == expected
    assert sorted(reference_result(catalog, grouped).rows()) == expected


def test_integer_avg_divides_an_exact_sum_once(catalog):
    """``avg`` of an INT64 expression is its exact integer sum divided by
    its count once, at finalisation — within one ulp of the true quotient
    (one rounding for ``float(sum)``, one for the division).  A float64
    running sum rounded per addition and landed two ulps off for ``O``
    and ``P`` here.  Checked against ``fractions.Fraction``, not the
    oracle, which shares the kernel."""
    orders = catalog.table("orders")
    groups: dict[str, list[int]] = {}
    for status, key, cust in zip(
        orders.column("o_orderstatus").tolist(),
        orders.column("o_orderkey").tolist(),
        orders.column("o_custkey").tolist(),
    ):
        groups.setdefault(status, []).append(key * cust * 800000011)
    assert 2**53 < sum(map(sum, groups.values())) < 2**63
    sql = (
        "select o_orderstatus, avg(o_orderkey * o_custkey * 800000011) "
        "from orders group by o_orderstatus"
    )
    for rows in (
        AccordionEngine(catalog).execute(sql).rows,
        reference_result(catalog, sql).rows(),
    ):
        assert sorted(status for status, _ in rows) == sorted(groups)
        for status, avg in rows:
            exact = Fraction(sum(groups[status]), len(groups[status]))
            assert abs(Fraction(avg) - exact) <= Fraction(math.ulp(avg))


def test_ordered_results_preserve_order(catalog, reference_results):
    engine = AccordionEngine(catalog)
    result = engine.execute(QUERIES["Q3"], max_virtual_seconds=1e5)
    assert norm_rows([result.rows[0]]) == norm_rows([reference_results["Q3"].rows()[0]])
    # Q3 orders by revenue desc: verify monotonicity.
    revenues = [r[1] for r in result.rows]
    assert revenues == sorted(revenues, reverse=True)


@pytest.mark.parametrize("dop", [1, 2, 4])
def test_results_invariant_under_static_stage_dop(catalog, reference_results, dop):
    engine = AccordionEngine(catalog)
    result = engine.execute(
        QUERIES["Q3"], QueryOptions(initial_stage_dop=dop), max_virtual_seconds=1e5
    )
    assert norm_rows(result.rows) == norm_rows(reference_results["Q3"].rows())


@pytest.mark.parametrize("dop", [2, 4])
def test_results_invariant_under_static_task_dop(catalog, reference_results, dop):
    engine = AccordionEngine(catalog)
    result = engine.execute(
        QUERIES["Q4"], QueryOptions(initial_task_dop=dop), max_virtual_seconds=1e5
    )
    assert norm_rows(result.rows) == norm_rows(reference_results["Q4"].rows())


@pytest.mark.parametrize("dop", [1, 2, 3])
def test_partitioned_join_matches_reference(catalog, reference_results, dop):
    engine = AccordionEngine(catalog)
    result = engine.execute(
        QUERIES["Q2J"],
        QueryOptions(join_distribution="partitioned", initial_stage_dop=dop),
        max_virtual_seconds=1e5,
    )
    assert norm_rows(result.rows) == norm_rows(reference_results["Q2J"].rows())


def test_shuffle_stage_plan_matches_reference(catalog, reference_results):
    engine = AccordionEngine(catalog)
    result = engine.execute(
        QUERIES["QSHUFFLE"],
        QueryOptions(
            join_distribution="partitioned",
            shuffle_stage_tables=frozenset({"orders"}),
            initial_stage_dop=2,
        ),
        max_virtual_seconds=1e5,
    )
    assert norm_rows(result.rows) == norm_rows(reference_results["QSHUFFLE"].rows())


def test_presto_baseline_same_results_slower(catalog):
    accordion = AccordionEngine(catalog)
    presto = AccordionEngine.presto_baseline(catalog)
    fast = accordion.execute(QUERIES["Q6"], max_virtual_seconds=1e5)
    slow = presto.execute(QUERIES["Q6"], max_virtual_seconds=1e5)
    assert norm_rows(fast.rows) == norm_rows(slow.rows)
    assert slow.elapsed_seconds > fast.elapsed_seconds


def test_prestissimo_baseline_close_to_accordion(catalog):
    accordion = AccordionEngine(catalog)
    prestissimo = AccordionEngine.prestissimo_baseline(catalog)
    a = accordion.execute(QUERIES["Q6"], max_virtual_seconds=1e5)
    p = prestissimo.execute(QUERIES["Q6"], max_virtual_seconds=1e5)
    assert norm_rows(a.rows) == norm_rows(p.rows)
    assert p.elapsed_seconds < 1.5 * a.elapsed_seconds


def test_baselines_reject_elastic_tuning(catalog):
    from repro.errors import ExecutionError

    presto = AccordionEngine.presto_baseline(catalog)
    query = presto.submit(QUERIES["Q6"])
    with pytest.raises(ExecutionError):
        query.tuning


def test_query_result_metadata(catalog):
    engine = AccordionEngine(catalog)
    result = engine.execute(QUERIES["Q6"], max_virtual_seconds=1e5)
    assert result.num_rows == 1
    assert result.columns == ["revenue"]
    assert result.elapsed_seconds > 0
    assert result.initialization_seconds > 0
    assert result.query.finished


def test_unfinished_query_result_raises(catalog):
    from repro.errors import ExecutionError

    engine = AccordionEngine(catalog)
    query = engine.submit(QUERIES["Q6"])
    with pytest.raises(ExecutionError):
        query._materialize()


def test_concurrent_queries(catalog):
    engine = AccordionEngine(catalog)
    q1 = engine.submit(QUERIES["Q6"])
    q2 = engine.submit(QUERIES["Q14"])
    engine.run_until_done(q1, 1e5)
    engine.run_until_done(q2, 1e5)
    assert q1.finished and q2.finished
    assert q1.result_rows == 1 and q2.result_rows == 1


def test_rpc_requests_counted(catalog):
    engine = AccordionEngine(catalog)
    query = engine.submit(QUERIES["Q3"])
    assert query.init_requests > 10
    engine.run_until_done(query, 1e5)
    assert query.initialization_seconds == pytest.approx(
        query.init_requests * engine.config.cost.rpc_request_cost, rel=0.01
    )


def _size_of(quantity) -> str:
    return "big" if quantity > 25 else "small"


_SIZE = "CASE WHEN l_quantity > 25 THEN 'big' ELSE 'small' END"


def test_string_case_result_sorts_reduces_and_compares(tiny_catalog):
    """A CASE that yields strings is a column like any other: ORDER BY,
    MIN/MAX and column-vs-column comparison work on it (its undecided-row
    NULL never materialises once an ELSE covers every row)."""
    lineitem = tiny_catalog.table("lineitem")
    rows = list(
        zip(
            lineitem.column("l_quantity").tolist(),
            lineitem.column("l_orderkey").tolist(),
            lineitem.column("l_returnflag").tolist(),
            lineitem.column("l_shipmode").tolist(),
        )
    )
    engine = AccordionEngine(tiny_catalog)

    def run(sql: str) -> list[tuple]:
        return engine.execute(sql, max_virtual_seconds=1e5).rows

    assert run(
        f"SELECT {_SIZE} AS sz, l_orderkey FROM lineitem ORDER BY sz, l_orderkey LIMIT 3"
    ) == sorted((_size_of(q), key) for q, key, _, _ in rows)[:3]
    assert run(f"SELECT max({_SIZE}) AS m FROM lineitem") == [
        (max(_size_of(q) for q, *_ in rows),)
    ]
    flags = sorted({flag for _, _, flag, _ in rows})
    assert run(
        f"SELECT l_returnflag, min({_SIZE}) AS m FROM lineitem "
        "GROUP BY l_returnflag ORDER BY l_returnflag"
    ) == [
        (flag, min(_size_of(q) for q, _, f, _ in rows if f == flag)) for flag in flags
    ]
    assert run(f"SELECT count(*) AS c FROM lineitem WHERE {_SIZE} < l_shipmode") == [
        (sum(_size_of(q) < mode for q, _, _, mode in rows),)
    ]
    assert run(f"SELECT count(*) AS c FROM lineitem WHERE {_SIZE} >= l_shipmode") == [
        (sum(_size_of(q) >= mode for q, _, _, mode in rows),)
    ]


#: Columns the NULL shapes read, per table, for the SQLite copy.
_SQLITE_COLUMNS = {
    "lineitem": [
        "l_orderkey", "l_quantity", "l_shipdate", "l_comment", "l_linenumber",
        "l_discount", "l_tax",
    ],
    "orders": ["o_orderkey"],
}
_NULL_SHAPES = [
    "global_agg_over_empty_input", "global_aggs_over_no_rows",
    "case_without_else_aggregates", "case_without_else_is_null",
    "case_without_else_group_key", "three_valued_logic",
    "null_join_key_matches_nothing",
]


def test_null_shapes_match_sqlite(catalog):
    """SQLite, an independent oracle, answers every NULL shape as the
    engine does (dates are day numbers in both)."""
    import sqlite3

    db = sqlite3.connect(":memory:")
    for table, names in _SQLITE_COLUMNS.items():
        columns = [catalog.table(table).column(name).tolist() for name in names]
        db.execute(f"create table {table} ({', '.join(names)})")
        marks = ", ".join("?" * len(names))
        db.executemany(f"insert into {table} values ({marks})", zip(*columns))
    engine = AccordionEngine(catalog)
    for name in _NULL_SHAPES:
        expected = db.execute(SQL_SHAPES[name]).fetchall()
        got = engine.execute(SQL_SHAPES[name], max_virtual_seconds=1e5).rows
        assert norm_rows(got) == norm_rows(expected), name
    # Hash-partitioned at stage DOP 4, every NULL key lands in one
    # partition and matches nothing there either.
    sql = SQL_SHAPES["null_join_key_matches_nothing"]
    options = QueryOptions(join_distribution="partitioned", initial_stage_dop=4)
    assert engine.execute(sql, options, max_virtual_seconds=1e5).rows == db.execute(sql).fetchall()


def test_nulls_sort_first_ascending_and_last_descending(catalog):
    """ORDER BY a nullable column: NULL below every value, ties (every
    NULL among them) in the next key's order — on the engine and on the
    reference."""
    sql = (
        "select case when l_quantity > 45 then l_quantity end as q, l_orderkey, "
        "l_linenumber from lineitem where l_orderkey < 200 "
        "order by q {}, l_orderkey, l_linenumber"
    )
    engine = AccordionEngine(catalog)
    for direction in ("asc", "desc"):
        rows = engine.execute(sql.format(direction), max_virtual_seconds=1e5).rows
        assert rows == reference_result(catalog, sql.format(direction)).rows()
        nulls = [row[0] is None for row in rows]
        assert any(nulls) and not all(nulls)
        assert nulls == sorted(nulls, reverse=direction == "asc")


@pytest.mark.parametrize("budget", [None, 60_000])
def test_a_nullable_group_key_crosses_exchanges_and_spills(catalog, tmp_path, budget):
    """GROUP BY a string and a numeric CASE without ELSE at stage DOP 4
    (four tasks' partial states, masked keys and all, cross an exchange)
    and under a memory budget that spills the final state to partitions
    hashed on those keys: the DOP-1 answer, every NULL in one group."""
    sql = (
        "select case when l_quantity > 10 then 'big' end as sz, "
        "case when l_quantity > 10 then l_orderkey end as k, count(*) as c, "
        "sum(case when l_discount > 0.05 then l_quantity end) as s "
        "from lineitem group by case when l_quantity > 10 then 'big' end, "
        "case when l_quantity > 10 then l_orderkey end"
    )
    baseline = AccordionEngine(catalog).execute(
        sql, QueryOptions(initial_stage_dop=1), max_virtual_seconds=1e5
    ).rows
    assert (None, None, 6054, sum_small_discounted(catalog)) in norm_rows(baseline)
    config = EngineConfig()
    if budget is not None:
        config = config.with_memory(query_budget_bytes=budget, spill_dir=str(tmp_path))
    engine = AccordionEngine(catalog, config=config)
    rows = engine.execute(sql, QueryOptions(initial_stage_dop=4), max_virtual_seconds=1e5).rows
    assert norm_rows(rows) == norm_rows(baseline)
    if budget is not None:
        assert engine.metrics.snapshot()["spill.spills"] > 0


def sum_small_discounted(catalog) -> float:
    """``sum(l_quantity)`` of the rows with ``l_quantity <= 10`` and
    ``l_discount > 0.05``, rounded as ``norm_rows`` rounds."""
    lineitem = catalog.table("lineitem")
    quantity = np.asarray(lineitem.column("l_quantity"))
    discount = np.asarray(lineitem.column("l_discount"))
    return round(float(quantity[(quantity <= 10) & (discount > 0.05)].sum()), 4)
