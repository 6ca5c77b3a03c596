"""Tests for the SQL lexer and parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import parse, parse_expression
from repro.sql.tokens import TokenType
from repro.data.tpch.queries import QUERIES


# -- lexer -----------------------------------------------------------------
def test_tokenize_basics():
    tokens = tokenize("SELECT a, b_2 FROM t WHERE x >= 1.5 -- trailing")
    kinds = [t.type for t in tokens]
    assert kinds[-1] is TokenType.EOF
    values = [t.value for t in tokens[:-1]]
    assert values == ["SELECT", "a", ",", "b_2", "FROM", "t", "WHERE", "x", ">=", "1.5"]


def test_tokenize_string_escapes():
    tokens = tokenize("select 'it''s'")
    assert tokens[1].type is TokenType.STRING
    assert tokens[1].value == "it's"


def test_tokenize_unterminated_string():
    with pytest.raises(LexError):
        tokenize("select 'oops")


def test_tokenize_bad_character():
    with pytest.raises(LexError) as err:
        tokenize("select @")
    assert err.value.line == 1


def test_tokenize_line_numbers():
    tokens = tokenize("select\n  x")
    ident = [t for t in tokens if t.type is TokenType.IDENT][0]
    assert ident.line == 2


def test_keywords_case_insensitive():
    tokens = tokenize("SeLeCt")
    assert tokens[0].matches_keyword("SELECT")


def test_qualified_number_vs_decimal():
    tokens = tokenize("t1.c2 3.5")
    values = [(t.type, t.value) for t in tokens[:-1]]
    assert values == [
        (TokenType.IDENT, "t1"),
        (TokenType.SYMBOL, "."),
        (TokenType.IDENT, "c2"),
        (TokenType.NUMBER, "3.5"),
    ]


# -- parser: select structure -------------------------------------------------
def test_parse_simple_select():
    stmt = parse("select a, b as bee from t where a > 1 limit 5")
    assert len(stmt.items) == 2
    assert stmt.items[1].alias == "bee"
    assert isinstance(stmt.relations[0], ast.TableRef)
    assert stmt.limit == 5


def test_parse_star():
    stmt = parse("select * from t")
    assert stmt.items[0].is_star


def test_parse_group_having_order():
    stmt = parse(
        "select k, sum(v) from t group by k having sum(v) > 10 order by k desc"
    )
    assert len(stmt.group_by) == 1
    assert stmt.having is not None
    assert stmt.order_by[0].ascending is False


def test_parse_implicit_and_explicit_joins():
    stmt = parse("select * from a, b inner join c on b.x = c.x")
    assert len(stmt.relations) == 2
    join = stmt.relations[1]
    assert isinstance(join, ast.JoinRef)
    assert join.join_type == "inner"


def test_parse_derived_table():
    stmt = parse("select * from (select a from t) as sub")
    sub = stmt.relations[0]
    assert isinstance(sub, ast.SubqueryRef)
    assert sub.alias == "sub"


def test_parse_table_alias_forms():
    stmt = parse("select n1.n_name from nation n1, nation as n2")
    assert stmt.relations[0].alias == "n1"
    assert stmt.relations[1].alias == "n2"


# -- parser: expressions -----------------------------------------------------
def test_precedence_or_and():
    expr = parse_expression("a = 1 or b = 2 and c = 3")
    assert isinstance(expr, ast.BinaryOp) and expr.op == "or"
    assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "and"


def test_precedence_arithmetic():
    expr = parse_expression("1 + 2 * 3")
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_parenthesised_expression():
    expr = parse_expression("(1 + 2) * 3")
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_between_and_not_between():
    expr = parse_expression("x between 1 and 2")
    assert isinstance(expr, ast.BetweenOp) and not expr.negated
    expr = parse_expression("x not between 1 and 2")
    assert expr.negated


def test_in_list_and_subquery():
    expr = parse_expression("x in (1, 2, 3)")
    assert isinstance(expr, ast.InListOp)
    assert len(expr.options) == 3
    stmt = parse("select * from t where x in (select y from u)")
    assert isinstance(stmt.where, ast.InSubquery)


def test_like_and_not_like():
    expr = parse_expression("s like 'PROMO%'")
    assert isinstance(expr, ast.LikeOp)
    assert parse_expression("s not like '%x%'").negated


def test_case_expression():
    expr = parse_expression("case when a = 1 then 'x' when a = 2 then 'y' else 'z' end")
    assert isinstance(expr, ast.CaseExpr)
    assert len(expr.whens) == 2
    assert isinstance(expr.default, ast.StringLiteral)


def test_extract_and_date_and_interval():
    expr = parse_expression("extract(year from d)")
    assert isinstance(expr, ast.ExtractExpr) and expr.unit == "year"
    expr = parse_expression("date '1994-01-01' + interval '3' month")
    assert isinstance(expr, ast.BinaryOp)
    assert isinstance(expr.right, ast.IntervalLiteral)
    assert expr.right.count == 3 and expr.right.unit == "month"


def test_exists_subquery():
    stmt = parse("select * from t where exists (select * from u where u.x = t.x)")
    assert isinstance(stmt.where, ast.ExistsSubquery)


def test_scalar_subquery_comparison():
    stmt = parse("select * from t where v = (select min(v) from u)")
    assert isinstance(stmt.where.right, ast.ScalarSubquery)


def test_count_star_and_distinct():
    expr = parse_expression("count(*)")
    assert isinstance(expr, ast.FunctionCall) and expr.is_star
    expr = parse_expression("count(distinct x)")
    assert expr.distinct


def test_unary_minus_and_not():
    expr = parse_expression("-x * 2")
    assert expr.op == "*"
    assert isinstance(expr.left, ast.UnaryOp)
    expr = parse_expression("not a = 1")
    assert isinstance(expr, ast.UnaryOp) and expr.op == "not"


def test_comparison_operator_aliases():
    assert parse_expression("a != b").op == "<>"


@pytest.mark.parametrize(
    "bad",
    [
        "select",
        "select a from",
        "select a from t where",
        "select a from t limit 1.5",
        "select a from t group by",
        "select case end from t",
        "select a from t order",
        "select extract(hour from x) from t",
        "interval 3 day",
        "interval '3' week",
        "date 19940101",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad) if bad.startswith("select") else parse_expression(bad)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("select a from t where a = 1 2")


def test_all_tpch_queries_parse():
    for name, sql in QUERIES.items():
        stmt = parse(sql)
        assert stmt.items, name
