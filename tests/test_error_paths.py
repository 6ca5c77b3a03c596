"""Error propagation through the public facade.

Front-end errors (lexing, parsing, analysis) must surface as their typed
exceptions from ``AccordionEngine.execute``/``submit``; execution-layer
errors carry query context; every one of them is an ``AccordionError``.
"""

import pytest

from repro import AccordionEngine, QueryFailedError
from repro.data.tpch.queries import QUERIES
from repro.errors import (
    AccordionError,
    AnalysisError,
    ExecutionError,
    LexError,
    ParseError,
    SqlError,
)


@pytest.fixture(scope="module")
def engine(tiny_catalog):
    return AccordionEngine(tiny_catalog)


def test_lex_error_from_facade(engine):
    with pytest.raises(LexError, match="unexpected character"):
        engine.execute("select ` from lineitem")


def test_parse_error_from_facade(engine):
    with pytest.raises(ParseError, match="expected expression"):
        engine.execute("select from where")


def test_analysis_error_unknown_column(engine):
    with pytest.raises(AnalysisError, match="column not found"):
        engine.execute("select no_such_column from lineitem")


def test_analysis_error_unknown_table(engine):
    with pytest.raises(AnalysisError, match="table not found"):
        engine.execute("select * from no_such_table")


@pytest.mark.parametrize(
    "sql",
    [
        "select count(*) from lineitem "
        "where l_quantity > 1.5 * (select avg(l_quantity) from lineitem)",
        "select l_suppkey from lineitem group by l_suppkey "
        "having sum(l_quantity) > 2 * (select avg(l_quantity) from lineitem)",
        "select 1 + (select max(l_quantity) from lineitem) as m from nation",
    ],
)
def test_scalar_subquery_inside_arithmetic_is_an_analysis_error(engine, sql):
    """Only a comparison's whole right-hand side may be a scalar subquery.
    Anywhere else the binder used to *hash* the node on its way to saying
    so, and a bare ``TypeError: unhashable type`` escaped the facade."""
    with pytest.raises(AnalysisError, match="scalar subquery in unsupported position"):
        engine.execute(sql)


def test_frontend_errors_are_typed_accordion_errors():
    for exc_type in (LexError, ParseError, AnalysisError):
        assert issubclass(exc_type, SqlError)
        assert issubclass(exc_type, AccordionError)
    assert issubclass(QueryFailedError, ExecutionError)


def test_unknown_stage_lookup_raises_execution_error(engine):
    query = engine.submit(QUERIES["Q1"])
    with pytest.raises(ExecutionError, match="no stage 999"):
        query.stage(999)
    engine.run_until_done(query)
    assert query.succeeded


def test_unfinished_query_result_raises(engine):
    query = engine.submit(QUERIES["Q1"])
    with pytest.raises(ExecutionError, match="has not finished"):
        query._materialize()
    engine.run_until_done(query)
    assert query.result().num_rows >= 1


def test_a_failure_in_the_first_quantum_fails_the_query(tiny_catalog):
    """A cast that raises in the scan stage's first quantum fails the
    query before the root task starts: the torn-down root task must not
    start then (it raised ``SchedulingError: no output collector`` out of
    the simulation).  Nothing leaks (``no_litter``), and the same engine
    answers its next query."""
    engine = AccordionEngine(tiny_catalog)
    with pytest.raises(QueryFailedError, match="invalid literal") as failure:
        engine.execute("select sum(cast(l_comment as integer)) as s from lineitem")
    assert isinstance(failure.value.cause, ValueError)
    assert engine.execute("select count(*) as c from nation").rows == [(25,)]
