"""Tests for bound expressions and the analyzer's binder."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import AnalysisError
from repro.pages import ColumnType, Page, Schema
from repro.sql.analyzer import ExpressionBinder, OuterColumn, Scope, split_conjuncts
from repro.sql.expressions import BoolAnd, Constant, InputRef, conjoin
from repro.sql.parser import parse_expression
from repro.util import date_to_days

INT = ColumnType.INT64
FLT = ColumnType.FLOAT64
STR = ColumnType.STRING
DATE = ColumnType.DATE

SCHEMA = Schema.of(
    ("k", INT), ("v", FLT), ("name", STR), ("d", DATE), ("k2", INT)
)
PAGE = Page.from_dict(
    SCHEMA,
    {
        "k": [1, 2, 3, 4],
        "v": [1.5, -2.0, 0.0, 10.0],
        "name": ["alpha", "beta", "PROMO box", "gamma"],
        "d": [date_to_days(s) for s in ("1994-01-01", "1995-06-15", "1996-12-31", "1994-03-05")],
        "k2": [10, 20, 30, 40],
    },
)


def bind(sql: str, scope: Scope | None = None):
    scope = scope or Scope([("t", SCHEMA)])
    return ExpressionBinder(scope).bind(parse_expression(sql))


def evaluate(sql: str):
    return bind(sql).evaluate(PAGE)


# -- binding -----------------------------------------------------------------
def test_column_resolution_and_types():
    expr = bind("v")
    assert isinstance(expr, InputRef)
    assert expr.index == 1 and expr.type is FLT


def test_qualified_resolution():
    expr = bind("t.k")
    assert expr.index == 0


def test_unknown_column():
    with pytest.raises(AnalysisError):
        bind("missing")


def test_ambiguous_column():
    scope = Scope([("a", SCHEMA), ("b", SCHEMA)])
    with pytest.raises(AnalysisError):
        ExpressionBinder(scope).bind(parse_expression("k"))
    # Qualification disambiguates; second relation offsets by schema width.
    expr = ExpressionBinder(scope).bind(parse_expression("b.k"))
    assert expr.index == len(SCHEMA)


def test_outer_column_marker():
    inner = Scope([(None, Schema.of(("x", INT)))], outer=Scope([("t", SCHEMA)]))
    expr = ExpressionBinder(inner).bind(parse_expression("k"))
    assert isinstance(expr, OuterColumn) and expr.levels == 1


def test_constant_folding_arithmetic():
    expr = bind("1 + 2 * 3")
    assert isinstance(expr, Constant) and expr.value == 7


def test_date_interval_folding():
    expr = bind("date '1998-12-01' - interval '90' day")
    assert isinstance(expr, Constant)
    assert expr.value == date_to_days("1998-09-02")
    expr = bind("date '1994-01-01' + interval '1' year")
    assert expr.value == date_to_days("1995-01-01")


def test_nonconstant_date_plus_days():
    result = evaluate("d + 5")
    assert result[0] == date_to_days("1994-01-06")


def test_nonconstant_month_interval_rejected():
    with pytest.raises(AnalysisError):
        bind("d + interval '1' month")


def test_type_errors():
    with pytest.raises(AnalysisError):
        bind("name + 1")
    with pytest.raises(AnalysisError):
        bind("k and v")
    with pytest.raises(AnalysisError):
        bind("name like 5") if False else bind("k like 'x%'")
    for bad in ("not k", "-name", "+ name", "null", "no_such_function(k)"):
        with pytest.raises(AnalysisError):
            bind(bad)


def test_unary_sign_folds_constants_and_negates_columns():
    assert bind("- 2.5").value == -2.5 and bind("-(-(3))").value == 3
    assert bind("+k") == bind("k")
    assert evaluate("-v + k").tolist() == [-0.5, 4.0, 3.0, -6.0]


def test_predicate_must_be_boolean():
    with pytest.raises(AnalysisError):
        ExpressionBinder(Scope([("t", SCHEMA)])).bind_predicate(parse_expression("k + 1"))


# -- evaluation -----------------------------------------------------------------
def test_comparisons_numeric():
    assert list(evaluate("k >= 3")) == [False, False, True, True]
    assert list(evaluate("v < 0")) == [False, True, False, False]
    assert list(evaluate("k <> 2")) == [True, False, True, True]


def test_comparisons_string():
    assert list(evaluate("name = 'beta'")) == [False, True, False, False]
    assert list(evaluate("name > 'b'")) == [False, True, False, True]


def test_logical_operators():
    assert list(evaluate("k > 1 and k < 4")) == [False, True, True, False]
    assert list(evaluate("k = 1 or k = 4")) == [True, False, False, True]
    assert list(evaluate("not k = 1")) == [False, True, True, True]


def test_arithmetic_vectorized():
    assert list(evaluate("k * 2 + 1")) == [3, 5, 7, 9]
    result = evaluate("v / 2")
    assert result.dtype == np.float64
    assert result[3] == pytest.approx(5.0)


def test_integer_division_is_float():
    assert evaluate("k / 2").dtype == np.float64


def test_between():
    assert list(evaluate("k between 2 and 3")) == [False, True, True, False]
    assert list(evaluate("k not between 2 and 3")) == [True, False, False, True]


def test_in_list():
    assert list(evaluate("k in (1, 4)")) == [True, False, False, True]
    assert list(evaluate("name in ('alpha', 'gamma')")) == [True, False, False, True]
    assert list(evaluate("k not in (1, 4)")) == [False, True, True, False]


def test_like_patterns():
    assert list(evaluate("name like 'PROMO%'")) == [False, False, True, False]
    assert list(evaluate("name like '%a'")) == [True, True, False, True]
    assert list(evaluate("name like '%et%'")) == [False, True, False, False]
    assert list(evaluate("name like '_lpha'")) == [True, False, False, False]


def test_case_expression_eval():
    result = evaluate("case when k = 1 then 10 when k = 2 then 20 else 0 end")
    assert list(result) == [10, 20, 0, 0]


def test_case_first_match_wins():
    result = evaluate("case when k > 0 then 1 when k > 2 then 2 else 3 end")
    assert list(result) == [1, 1, 1, 1]


def test_case_mixed_numeric_promotes_to_float():
    expr = bind("case when k = 1 then 1 else 0.5 end")
    assert expr.type is FLT


def test_extract_year_month_day():
    assert list(evaluate("extract(year from d)")) == [1994, 1995, 1996, 1994]
    assert list(evaluate("extract(month from d)")) == [1, 6, 12, 3]
    assert list(evaluate("extract(day from d)")) == [1, 15, 31, 5]


def test_date_comparison_with_literal():
    assert list(evaluate("d < date '1995-01-01'")) == [True, False, False, True]


def test_cast():
    assert evaluate("cast(k as double)").dtype == np.float64
    assert list(evaluate("cast(k as varchar)")) == ["1", "2", "3", "4"]


def test_split_conjuncts():
    parts = split_conjuncts(parse_expression("a = 1 and b = 2 and (c = 3 or d = 4)"))
    assert len(parts) == 3


def test_conjoin_builds_one_flat_and():
    k, between, v = bind("k = 1"), bind("k2 between 10 and 30"), bind("v > 0")
    assert isinstance(between, BoolAnd)
    assert conjoin([]) is None
    assert conjoin([between]) is between
    both = conjoin([k, between, v])
    assert both.terms == (k, *between.terms, v)
    assert both.evaluate(PAGE).tolist() == [True, False, False, False]
    assert conjoin([bind("k2 > 10"), v]).evaluate(PAGE).tolist() == [False, False, False, True]


def test_aggregate_outside_context_rejected():
    with pytest.raises(AnalysisError):
        bind("sum(v)")


def test_aggregate_collection():
    aggs = []
    binder = ExpressionBinder(Scope([("t", SCHEMA)]), aggregates=aggs, agg_offset=1)
    bound = binder.bind(parse_expression("sum(v) / count(*)"))
    assert len(aggs) == 2
    # Identical aggregates are deduplicated.
    binder.bind(parse_expression("sum(v)"))
    assert len(aggs) == 2


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=50))
def test_comparison_matches_python_semantics(values):
    schema = Schema.of(("x", INT))
    page = Page.from_dict(schema, {"x": values})
    bound = ExpressionBinder(Scope([(None, schema)])).bind(parse_expression("x > 5"))
    assert list(bound.evaluate(page)) == [v > 5 for v in values]


def test_three_valued_logic_and_null_propagation():
    """Kleene's truth tables over a NULL (a CASE without ELSE), on the
    interpreter and on the compiled closure alike: an operator with a NULL
    operand is NULL, ``IS NULL`` reads the mask, a filter reads NULL as
    not TRUE."""
    from repro.sql.compiler import compile_expression

    null = "(case when k > 9 then true end)"  # NULL in every row
    cases = {
        f"{null} and false": [False] * 4,
        f"{null} and true": [None] * 4,
        f"{null} or true": [True] * 4,
        f"{null} or false": [None] * 4,
        f"not {null}": [None] * 4,
        "(case when k > 2 then k end) + 1 > 3": [None, None, True, True],
        "(case when k > 2 then k end) is null": [True, True, False, False],
        "(case when k > 2 then k end) is not null": [False, False, True, True],
        # Only rows with a value are computed on: no CAST of a NULL raises.
        "cast((case when k > 9 then name end) as integer) = 1": [None] * 4,
        "cast((case when k > 2 then k end) as varchar) = '3'": [None, None, True, False],
    }
    for sql, expected in cases.items():
        expr = bind(sql)
        assert expr.nullable == (" is " not in sql), sql  # known when bound
        for column in (expr.evaluate(PAGE), compile_expression(expr)(PAGE)):
            assert list(column.tolist()) == expected, sql
            assert column.astype(bool).tolist() == [v is True for v in expected], sql
