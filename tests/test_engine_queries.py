"""End-to-end: every supported query through the distributed engine must
equal the reference executor (the engine's central correctness contract)."""

import pytest

from repro import AccordionEngine, EngineConfig, QueryOptions
from repro.data.tpch.queries import QUERIES, STANDALONE_BENCHMARK
from repro.plan import LogicalPlanner, prune_columns
from repro.reference import execute_reference
from repro.sql.parser import parse

from conftest import norm_rows


@pytest.fixture(scope="module")
def reference_results(catalog):
    planner = LogicalPlanner(catalog)
    results = {}
    for name, sql in QUERIES.items():
        plan = prune_columns(planner.plan(parse(sql)))
        results[name] = execute_reference(plan, catalog)
    return results


@pytest.mark.parametrize("name", sorted(STANDALONE_BENCHMARK))
def test_tpch_query_matches_reference(catalog, reference_results, name):
    engine = AccordionEngine(catalog)
    result = engine.execute(QUERIES[name], max_virtual_seconds=1e5)
    expected = reference_results[name]
    assert norm_rows(result.rows) == norm_rows(expected.rows())
    assert result.columns == expected.schema.names()


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
