"""Tests for the reference executor against hand-computed results."""

import math

import pytest

from repro.data import Catalog, Table
from repro.pages import ColumnType, Schema
from repro.plan import LogicalPlanner, prune_columns
from repro.exec.operators.sorting import sort_indices
from repro.reference import execute_reference
from repro.sql.parser import parse
from repro.pages import Page

INT = ColumnType.INT64
FLT = ColumnType.FLOAT64
STR = ColumnType.STRING


@pytest.fixture(scope="module")
def mini_catalog():
    catalog = Catalog()
    catalog.register(
        Table(
            "emp",
            Schema.of(("id", INT), ("dept", STR), ("salary", FLT)),
            [
                INT.coerce([1, 2, 3, 4, 5]),
                STR.coerce(["eng", "eng", "ops", "ops", "hr"]),
                FLT.coerce([100.0, 200.0, 50.0, 70.0, 90.0]),
            ],
        )
    )
    catalog.register(
        Table(
            "dept",
            Schema.of(("name", STR), ("budget", FLT)),
            [STR.coerce(["eng", "ops"]), FLT.coerce([1000.0, 500.0])],
        )
    )
    return catalog


def run(catalog, sql):
    plan = prune_columns(LogicalPlanner(catalog).plan(parse(sql)))
    return execute_reference(plan, catalog).rows()


def test_projection_and_filter(mini_catalog):
    rows = run(mini_catalog, "select id from emp where salary > 80")
    assert sorted(rows) == [(1,), (2,), (5,)]


def test_group_by_aggregates(mini_catalog):
    rows = run(
        mini_catalog,
        "select dept, sum(salary), count(*), avg(salary), min(salary), max(salary) "
        "from emp group by dept order by dept",
    )
    assert rows == [
        ("eng", 300.0, 2, 150.0, 100.0, 200.0),
        ("hr", 90.0, 1, 90.0, 90.0, 90.0),
        ("ops", 120.0, 2, 60.0, 50.0, 70.0),
    ]


def test_global_aggregate(mini_catalog):
    rows = run(mini_catalog, "select sum(salary), count(*) from emp")
    assert rows == [(510.0, 5)]


def test_global_aggregate_over_empty_input(mini_catalog):
    rows = run(mini_catalog, "select sum(salary), count(*) from emp where salary > 1e9")
    assert rows[0][1] == 0
    assert rows[0][0] is None  # SQL: sum over no rows is NULL


def test_inner_join(mini_catalog):
    rows = run(
        mini_catalog,
        "select id, budget from emp, dept where dept = name order by id",
    )
    assert rows == [(1, 1000.0), (2, 1000.0), (3, 500.0), (4, 500.0)]


def test_semi_join_exists(mini_catalog):
    rows = run(
        mini_catalog,
        "select name from dept where exists (select * from emp where dept = name and salary > 150)",
    )
    assert rows == [("eng",)]


def test_anti_join_not_exists(mini_catalog):
    rows = run(
        mini_catalog,
        "select name from dept where not exists "
        "(select * from emp where dept = name and salary > 150)",
    )
    assert rows == [("ops",)]


def test_correlated_scalar_subquery(mini_catalog):
    rows = run(
        mini_catalog,
        "select id from emp e where salary = "
        "(select max(salary) from emp where dept = e.dept) order by id",
    )
    assert rows == [(2,), (4,), (5,)]


def test_uncorrelated_scalar_subquery(mini_catalog):
    rows = run(
        mini_catalog,
        "select id from emp where salary > (select avg(salary) from emp)",
    )
    assert sorted(rows) == [(2,)]


def test_having(mini_catalog):
    rows = run(
        mini_catalog,
        "select dept, count(*) from emp group by dept having count(*) > 1 order by dept",
    )
    assert rows == [("eng", 2), ("ops", 2)]


def test_case_in_aggregate(mini_catalog):
    rows = run(
        mini_catalog,
        "select sum(case when dept = 'eng' then salary else 0 end) / sum(salary) from emp",
    )
    assert rows[0][0] == pytest.approx(300.0 / 510.0)


def test_topn_desc(mini_catalog):
    rows = run(mini_catalog, "select id, salary from emp order by salary desc limit 2")
    assert rows == [(2, 200.0), (1, 100.0)]


def test_limit_without_order(mini_catalog):
    rows = run(mini_catalog, "select id from emp limit 3")
    assert len(rows) == 3


def test_distinct(mini_catalog):
    rows = run(mini_catalog, "select distinct dept from emp")
    assert sorted(rows) == [("eng",), ("hr",), ("ops",)]


def test_sort_indices_stability():
    schema = Schema.of(("a", INT), ("b", INT))
    page = Page.from_rows(schema, [(1, 3), (0, 1), (1, 2), (0, 0)])
    order = sort_indices(page, [(0, True)])
    # Stable: equal keys keep original relative order.
    assert list(order) == [1, 3, 0, 2]


def test_sort_indices_mixed_directions():
    schema = Schema.of(("a", INT), ("b", STR))
    page = Page.from_rows(schema, [(1, "x"), (2, "x"), (1, "y")])
    order = sort_indices(page, [(1, True), (0, False)])
    assert [page.rows()[i] for i in order] == [(2, "x"), (1, "x"), (1, "y")]
