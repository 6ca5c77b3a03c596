"""Tests for scalar/aggregate helpers: LIKE, grouped reductions, hashing."""

import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import AnalysisError
from repro.pages import ColumnType, DictColumn
from repro.sql.functions import (
    aggregate_result_type,
    arithmetic_result_type,
    comparable,
    group_codes,
    grouped_count,
    grouped_max,
    grouped_min,
    grouped_sum,
    hash_columns,
    like_matcher,
    partial_fields,
    partition_assignments,
)

INT = ColumnType.INT64
FLT = ColumnType.FLOAT64
STR = ColumnType.STRING
DATE = ColumnType.DATE


# -- like -----------------------------------------------------------------
@pytest.mark.parametrize(
    "pattern,matches,rejects",
    [
        ("PROMO%", ["PROMO X"], ["XPROMO"]),
        ("%BRASS", ["SMALL BRASS"], ["BRASS SMALL"]),
        ("%green%", ["dark green ink"], ["gren"]),
        ("exact", ["exact"], ["exactly", "EXACT"]),
        ("a_c", ["abc", "axc"], ["ac", "abbc"]),
        ("%a%b%", ["xaxbx", "ab"], ["ba"]),
    ],
)
def test_like_matcher(pattern, matches, rejects):
    fn = like_matcher(pattern)
    for s in matches:
        assert fn(s), (pattern, s)
    for s in rejects:
        assert not fn(s), (pattern, s)


def test_like_escapes_regex_metacharacters():
    assert like_matcher("a.b%")("a.bc")
    assert not like_matcher("a.b%")("axbc")


# -- type rules -----------------------------------------------------------------
def test_arithmetic_result_types():
    assert arithmetic_result_type("+", INT, INT) is INT
    assert arithmetic_result_type("*", INT, FLT) is FLT
    assert arithmetic_result_type("/", INT, INT) is FLT
    assert arithmetic_result_type("+", DATE, INT) is DATE
    with pytest.raises(AnalysisError):
        arithmetic_result_type("+", STR, INT)


def test_comparable_rules():
    assert comparable(INT, FLT)
    assert comparable(DATE, DATE)
    assert comparable(DATE, INT)
    assert not comparable(STR, INT)


def test_aggregate_result_types():
    assert aggregate_result_type("count", None) is INT
    assert aggregate_result_type("sum", INT) is INT
    assert aggregate_result_type("sum", FLT) is FLT
    assert aggregate_result_type("avg", INT) is FLT
    assert aggregate_result_type("min", STR) is STR
    with pytest.raises(AnalysisError):
        aggregate_result_type("sum", STR)
    with pytest.raises(AnalysisError):
        aggregate_result_type("median", FLT)


def test_partial_fields_layout():
    assert partial_fields("avg", FLT) == [FLT, INT]
    assert partial_fields("count", None) == [INT]
    assert partial_fields("min", STR) == [STR]


# -- grouped reductions ------------------------------------------------------
def test_grouped_reductions_basic():
    codes = np.array([0, 1, 0, 1, 2])
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert list(grouped_sum(codes, values, 3)) == [4.0, 6.0, 5.0]
    assert list(grouped_count(codes, 3)) == [2, 2, 1]
    assert list(grouped_min(codes, values, 3)) == [1.0, 2.0, 5.0]
    assert list(grouped_max(codes, values, 3)) == [3.0, 4.0, 5.0]


def test_grouped_sum_int_stays_int():
    codes = np.array([0, 0])
    out = grouped_sum(codes, np.array([2, 3], dtype=np.int64), 1)
    assert out.dtype == np.int64
    assert out[0] == 5


def test_grouped_sum_int_is_exact_where_float64_is_not():
    # 2**53 + 1 has no float64; neither has a sum that crosses 2**53 from
    # small addends.  Checked against python ints, per group; the last
    # group is absent from the page.
    values = [2**53 + 1, 1, -(2**60) - 3, 2**53, 1, 2**62 + 1]
    codes = [0, 0, 1, 2, 2, 1]
    out = grouped_sum(np.array(codes), np.array(values, dtype=np.int64), 4)
    assert out.dtype == np.int64
    assert out.tolist() == [
        sum(v for v, c in zip(values, codes) if c == g) for g in range(4)
    ]
    many = np.full(3000, 2**42 + 1, dtype=np.int64)  # each fits, the sum does not
    assert grouped_sum(np.zeros(3000, dtype=np.int64), many, 1).tolist() == [
        3000 * (2**42 + 1)
    ]
    assert grouped_sum(np.zeros(0, dtype=np.int64), many[:0], 2).tolist() == [0, 0]


def test_grouped_min_max_strings():
    codes = np.array([0, 0, 1])
    values = DictColumn.from_values(["b", "a", "z"])
    assert list(grouped_min(codes, values, 2)) == ["a", "z"]
    assert list(grouped_max(codes, values, 2)) == ["b", "z"]


def test_group_codes_single_column():
    codes, uniques = group_codes([np.array([5, 3, 5, 3, 9])])
    assert len(uniques) == 1
    recovered = uniques[0][codes]
    assert list(recovered) == [5, 3, 5, 3, 9]


def test_group_codes_multi_column():
    a = np.array([1, 1, 2, 2, 1])
    b = DictColumn.from_values(["x", "y", "x", "x", "x"])
    codes, uniques = group_codes([a, b])
    keys = list(zip(uniques[0][codes].tolist(), uniques[1][codes].tolist()))
    assert keys == list(zip(a.tolist(), b.tolist()))
    assert len(set(zip(uniques[0].tolist(), uniques[1].tolist()))) == len(uniques[0])


_KEY = st.one_of(st.none(), st.integers(-3, 5))


@given(
    st.integers(2, 3).flatmap(
        lambda width: st.tuples(
            st.booleans(),
            st.lists(st.tuples(*[_KEY] * width), min_size=1, max_size=100),
        )
    )
)
def test_group_codes_property(nullable_rows):
    """Over two or three integer key columns, with and without NULL keys:
    equal keys share a code, and codes number the groups in ascending
    lexicographic key order (NULL first in its column)."""
    nullable, rows = nullable_rows
    if not nullable:
        rows = [tuple(0 if v is None else v for v in row) for row in rows]
    columns = [INT.coerce([row[j] for row in rows]) for j in range(len(rows[0]))]
    codes, uniques = group_codes(columns)
    order = sorted(set(rows), key=lambda row: [(v is not None, v or 0) for v in row])
    assert codes.tolist() == [order.index(row) for row in rows]
    # Unique arrays reconstruct the original rows.
    assert list(zip(*(u[codes].tolist() for u in uniques))) == rows


# -- hashing / partitioning -----------------------------------------------------
def test_hash_columns_deterministic():
    col = np.arange(100, dtype=np.int64)
    assert list(hash_columns([col])) == list(hash_columns([col.copy()]))


def test_partition_assignments_range_and_stability():
    col = np.arange(1000, dtype=np.int64)
    parts = partition_assignments([col], 7)
    assert parts.min() >= 0 and parts.max() < 7
    # Same key -> same partition regardless of batch boundaries.
    again = partition_assignments([col[500:]], 7)
    assert list(parts[500:]) == list(again)


def test_partition_assignments_balance():
    col = np.arange(10_000, dtype=np.int64)
    parts = partition_assignments([col], 10)
    counts = np.bincount(parts, minlength=10)
    assert counts.min() > 600  # roughly balanced


def test_partition_strings_deterministic():
    col = DictColumn.from_values(f"cust{i}" for i in range(50))
    parts = partition_assignments([col], 4)
    assert list(parts) == list(partition_assignments([col], 4))
    # The hash is a function of the text (crc32 of its UTF-8 bytes), not
    # of how the dictionary numbers it: shuffles agree across dictionaries.
    reordered = DictColumn.from_values(col.tolist()[::-1])[::-1]
    assert list(partition_assignments([reordered], 4)) == list(parts)
    expected = [zlib.crc32(v.encode("utf-8")) for v in col.tolist()]
    assert hash_columns([col]).tolist() == hash_columns(
        [np.array(expected, dtype=np.uint64).view(np.int64)]
    ).tolist()


def test_partition_requires_positive():
    with pytest.raises(ValueError):
        partition_assignments([np.arange(3)], 0)
    with pytest.raises(ValueError):
        hash_columns([])
