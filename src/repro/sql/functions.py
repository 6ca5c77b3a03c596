"""Scalar helpers and aggregate function semantics.

This module centralises:

* LIKE pattern compilation (with fast paths for prefix/suffix/contains),
* type rules for arithmetic and aggregates,
* the partial/final decomposition used by the two-stage aggregation model
  (paper Section 4.1): ``partial_fields`` describes the state columns a
  partial aggregation emits and ``merge functions`` describe how the final
  aggregation combines them,
* vectorized hashing used for shuffle partitioning.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import AnalysisError
from ..pages import ColumnType, DictColumn, MaskedColumn
from ..pages.dictcolumn import EntryLookup
from ..pages.masked import split_nulls, with_nulls

AGGREGATE_FUNCTIONS = frozenset({"sum", "count", "avg", "min", "max"})


# ---------------------------------------------------------------------------
# LIKE
# ---------------------------------------------------------------------------
@lru_cache(maxsize=256)
def like_matcher(pattern: str) -> Callable[[str], bool]:
    """Compile a SQL LIKE pattern to a predicate over python strings."""
    if "_" not in pattern:
        body = pattern.strip("%")
        if "%" not in body:
            leading = pattern.startswith("%")
            trailing = pattern.endswith("%")
            if leading and trailing:
                return lambda s, b=body: b in s
            if trailing and not leading:
                return lambda s, b=body: s.startswith(b)
            if leading and not trailing:
                return lambda s, b=body: s.endswith(b)
            return lambda s, b=body: s == b
    regex = re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL,
    )
    return lambda s, r=regex: r.match(s) is not None


# ---------------------------------------------------------------------------
# Type rules
# ---------------------------------------------------------------------------
def arithmetic_result_type(op: str, left: ColumnType, right: ColumnType) -> ColumnType:
    """Result type of ``left op right``; raises on nonsense combinations."""
    if op == "||":
        return ColumnType.STRING
    numeric = (ColumnType.INT64, ColumnType.FLOAT64)
    if left is ColumnType.DATE and right is ColumnType.INT64 and op in ("+", "-"):
        return ColumnType.DATE  # date +- days
    if left in numeric and right in numeric:
        if op == "/":
            return ColumnType.FLOAT64
        if ColumnType.FLOAT64 in (left, right):
            return ColumnType.FLOAT64
        return ColumnType.INT64
    raise AnalysisError(f"cannot apply {op} to {left.value} and {right.value}")


def comparable(left: ColumnType, right: ColumnType) -> bool:
    numeric = (ColumnType.INT64, ColumnType.FLOAT64)
    if left is right:
        return True
    if left in numeric and right in numeric:
        return True
    return {left, right} == {ColumnType.DATE, ColumnType.INT64}


def aggregate_result_type(function: str, arg_type: ColumnType | None) -> ColumnType:
    if function == "count":
        return ColumnType.INT64
    if arg_type is None:
        raise AnalysisError(f"{function} requires an argument")
    if function == "avg":
        return ColumnType.FLOAT64
    if function in ("min", "max"):
        return arg_type
    if function == "sum":
        if arg_type is ColumnType.FLOAT64:
            return ColumnType.FLOAT64
        if arg_type is ColumnType.INT64:
            return ColumnType.INT64
        raise AnalysisError(f"cannot sum {arg_type.value}")
    raise AnalysisError(f"unknown aggregate {function}")


def partial_fields(
    function: str, arg_type: ColumnType | None, skips_nulls: bool = False
) -> list[ColumnType]:
    """State column types emitted by partial aggregation for one call.

    ``avg`` carries (sum, count) and divides once at finalisation — an
    INT64 argument keeps an exact INT64 sum, like ``sum`` of the same
    expression; everything else carries one value.  A sum/min/max whose
    argument can be NULL also counts its non-NULL values (none: NULL).
    """
    if function == "count":
        return [ColumnType.INT64]
    if function == "avg":
        exact = arg_type is ColumnType.INT64
        return [ColumnType.INT64 if exact else ColumnType.FLOAT64, ColumnType.INT64]
    count = [ColumnType.INT64] if skips_nulls else []
    return [aggregate_result_type(function, arg_type)] + count


# ---------------------------------------------------------------------------
# Vectorized grouped reduction primitives
# ---------------------------------------------------------------------------
_INT64 = np.dtype(np.int64)
_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min
#: ``bincount`` accumulates in float64: exact for integers below this.
_FLOAT_EXACT = 2**53


def grouped_sum(codes: np.ndarray, values: np.ndarray, ngroups: int) -> np.ndarray:
    if values.dtype.kind != "i":
        return np.bincount(codes, weights=values, minlength=ngroups)
    if len(values):
        peak = max(int(values.max()), -int(values.min()))
        if peak * len(values) >= _FLOAT_EXACT:
            # A float64 accumulator would round: add as integers.
            out = np.zeros(ngroups, dtype=np.int64)
            np.add.at(out, codes, values)
            return out
    return np.bincount(codes, weights=values, minlength=ngroups).astype(np.int64)


def grouped_count(codes: np.ndarray, ngroups: int) -> np.ndarray:
    return np.bincount(codes, minlength=ngroups).astype(np.int64)


def _grouped_extreme(codes, values, ngroups: int, ufunc: np.ufunc, identity):
    """Per-group min/max: ``ufunc.at`` from ``identity(dtype)``; a string
    column reduces its value *ranks* (integers ordered like the text) and
    maps the winners back."""
    if isinstance(values, DictColumn):
        ranks, dictionary = values.rank_codes()
        winners = _grouped_extreme(codes, ranks, ngroups, ufunc, identity)
        return DictColumn(dictionary.order[winners], dictionary)
    out = np.full(ngroups, identity(values.dtype), dtype=values.dtype)
    ufunc.at(out, codes, values)
    return out


def grouped_min(codes: np.ndarray, values: np.ndarray, ngroups: int) -> np.ndarray:
    return _grouped_extreme(codes, values, ngroups, np.minimum, min_identity)


def grouped_max(codes: np.ndarray, values: np.ndarray, ngroups: int) -> np.ndarray:
    return _grouped_extreme(codes, values, ngroups, np.maximum, max_identity)


def min_identity(dtype: np.dtype):
    """What ``min`` starts from and leaves unchanged: the largest value
    of ``dtype`` (every integer column of the engine is int64)."""
    if dtype.kind in "iu":
        return _INT64_MAX if dtype == _INT64 else np.iinfo(dtype).max
    return np.inf


def max_identity(dtype: np.dtype):
    if dtype.kind in "iu":
        return _INT64_MIN if dtype == _INT64 else np.iinfo(dtype).min
    return -np.inf


def group_codes(key_columns: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Assign a dense group code to each row given its key columns.

    Returns ``(codes, unique_key_columns)`` where ``codes[i]`` indexes into
    the unique key arrays.  Works for any mix of numeric and string
    columns: a string column is grouped by its value ranks, so groups are
    numbered in value order like every other type.  A numeric column
    with NULLs groups as (is valid, value or 0): its NULLs form one
    group, numbered first.
    """
    if not key_columns:
        return np.zeros(0, dtype=np.int64), []
    for col in key_columns:
        if type(col) is MaskedColumn:
            return _group_codes_with_nulls(key_columns)
    ranked = {
        j: col.rank_codes()
        for j, col in enumerate(key_columns)
        if isinstance(col, DictColumn)
    }
    if ranked:
        codes, uniques = group_codes(
            [ranked[j][0] if j in ranked else col for j, col in enumerate(key_columns)]
        )
        for j, (_, dictionary) in ranked.items():
            uniques[j] = DictColumn(dictionary.order[uniques[j]], dictionary)
        return codes, uniques
    if len(key_columns) == 1:
        col = key_columns[0]
        fast = _int_factorize(col)
        if fast is not None:
            codes, uniques = fast
            return codes, [uniques]
        uniques, codes = np.unique(col, return_inverse=True)
        return codes.astype(np.int64), [uniques]
    codes = _pack_int_keys(key_columns)
    if codes is None:
        codes = _factorized_pack(key_columns)
    ngroups = int(codes.max()) + 1 if len(codes) else 0
    # Map group codes back to one representative row per group (reverse
    # pass keeps the first occurrence in row order).
    first_row = np.full(ngroups, -1, dtype=np.int64)
    order = np.arange(len(codes))
    first_row[codes[::-1]] = order[::-1]
    unique_cols = [col[first_row] for col in key_columns]
    return codes, unique_cols


def _group_codes_with_nulls(key_columns: list) -> tuple[np.ndarray, list]:
    """``group_codes`` where a numeric key column holds a NULL: that
    column groups as (is valid, value or 0)."""
    expanded = []
    for values, valid in map(split_nulls, key_columns):
        expanded += [values] if valid is None else [valid.astype(np.int64), np.where(valid, values, 0)]
    codes, uniques = group_codes(expanded)
    out = []
    for col in key_columns:
        valid = uniques.pop(0) == 1 if type(col) is MaskedColumn else None
        out.append(with_nulls(uniques.pop(0), valid))
    return codes, out


def _int_factorize(col: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``np.unique(col, return_inverse=True)`` for small-span int columns.

    Dictionary-encoded group keys and near-dense TPC-H join keys have
    value spans close to their distinct counts; a bincount + cumsum remap
    beats the sort inside ``np.unique`` roughly 3x there.  Returns
    ``(codes, uniques)`` with identical values/ordering to ``np.unique``,
    or ``None`` when the column is non-integer or too sparse.
    """
    n = len(col)
    if n == 0 or col.dtype.kind not in "iu":
        return None
    base = int(col.min())
    span = int(col.max()) - base + 1
    if span > 4 * n + 1024:
        return None
    shifted = col.astype(np.int64, copy=False) - base
    counts = np.bincount(shifted, minlength=span)
    present = counts > 0
    remap = np.cumsum(present) - 1
    uniques = (np.flatnonzero(present) + base).astype(col.dtype, copy=False)
    return remap[shifted], uniques


def _pack_int_keys(key_columns: list[np.ndarray]) -> np.ndarray | None:
    """All-integer fast path: pack (value - min) columns mixed-radix.

    Skips the per-column ``np.unique`` calls entirely — one min/max scan
    per column plus a single unique over the packed keys.  The group
    ordering (lexicographic by column value) is identical to the
    factorized path.  Returns ``None`` when a column is non-integer or
    the value spans would overflow int64.
    """
    if not all(col.dtype.kind in "iu" for col in key_columns):
        return None
    n = len(key_columns[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    bases = [int(col.min()) for col in key_columns]
    spans = [int(col.max()) - base + 1 for col, base in zip(key_columns, bases)]
    span_product = 1
    for span in spans:
        span_product *= span
    if span_product > _INT64_MAX:
        return None
    packed = key_columns[0].astype(np.int64, copy=True)
    packed -= bases[0]
    for col, base, span in zip(key_columns[1:], bases[1:], spans[1:]):
        packed *= span
        packed += col.astype(np.int64, copy=False) - base
    fast = _int_factorize(packed)
    if fast is not None:
        return fast[0]
    _, codes = np.unique(packed, return_inverse=True)
    return codes.astype(np.int64)


def _factorized_pack(key_columns: list[np.ndarray]) -> np.ndarray:
    """General multi-column path: one ``np.lexsort`` (first column most
    significant), a new group wherever adjacent sorted rows differ.
    Equality is ``np.unique``'s — ``-0.0 == 0.0``, every NaN (sorted
    last) in one group — and nothing is packed, so no span can overflow."""
    order = np.lexsort(key_columns[::-1])
    boundary = np.zeros(len(order), dtype=bool)
    for col in key_columns:
        ordered = col[order]
        differs = ordered[1:] != ordered[:-1]
        if ordered.dtype.kind == "f":
            nan = np.isnan(ordered)
            differs &= ~(nan[1:] & nan[:-1])
        boundary[1:] |= differs
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = np.cumsum(boundary)
    return codes


class GroupKeyEncoder:
    """Operator-lifetime code assignment for one string group-key column.

    Values get dense ``int64`` codes that are stable across pages: unseen
    values of a page are numbered in ascending value order after every
    value seen before.  Encoding a page is one gather through a
    per-dictionary table (:class:`EntryLookup`), so python touches each
    dictionary entry once — never rows.
    """

    __slots__ = ("values", "code_of", "encode")

    def __init__(self):
        self.values: list = []
        self.code_of: dict = {}
        #: ``encode(col) -> int64 code per row``.
        self.encode = EntryLookup(self._learn)

    def _learn(self, entries: list) -> np.ndarray:
        code_of = self.code_of
        for value in sorted(v for v in entries if v not in code_of):
            code_of[value] = len(self.values)
            self.values.append(value)
        return np.fromiter(
            map(code_of.__getitem__, entries), dtype=np.int64, count=len(entries)
        )


# ---------------------------------------------------------------------------
# Hash partitioning
# ---------------------------------------------------------------------------
_MIX = np.uint64(0x9E3779B97F4A7C15)


def hash_columns(columns: list[np.ndarray]) -> np.ndarray:
    """Stable vectorized 64-bit hash of row keys for shuffle partitioning."""
    if not columns:
        raise ValueError("hash_columns needs at least one column")
    n = len(columns[0])
    acc = np.zeros(n, dtype=np.uint64)
    for col in columns:
        col, valid = (col.values, col.valid) if type(col) is MaskedColumn else (col, None)
        if isinstance(col, DictColumn):
            h = col.hash64()
        else:
            h = col.view(np.uint64) if col.dtype == np.int64 else col.astype(np.float64).view(np.uint64)
        if valid is not None:  # every NULL hashes alike
            h = np.where(valid, h, np.uint64(0))
        with np.errstate(over="ignore"):
            acc = (acc ^ h) * _MIX
            acc ^= acc >> np.uint64(29)
    return acc


def partition_assignments(columns: list[np.ndarray], partitions: int) -> np.ndarray:
    """Partition index per row (hash mod partitions)."""
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    return (hash_columns(columns) % np.uint64(partitions)).astype(np.int64)
