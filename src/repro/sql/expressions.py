"""Bound (resolved, typed) expressions with vectorized evaluation.

The analyzer lowers AST expressions to this IR.  Every node knows its
:class:`~repro.pages.ColumnType` and evaluates against a page to a numpy
array of ``page.num_rows`` values (a :class:`~repro.pages.DictColumn`
for STRING), wrapped in a :class:`~repro.pages.MaskedColumn` where a row
is NULL.  Whether a node can yield NULL is known when it is bound
(:attr:`BoundExpr.nullable`: CASE without ELSE, a global sum/min/max/avg
and what reads them); a node that cannot evaluates exactly as if NULL did
not exist.  One that can follows SQLite: an operator with a NULL operand
gives NULL (:func:`_strict`), AND / OR / NOT use three-valued logic,
``IS [NOT] NULL`` reads the mask, and a filter keeps only TRUE rows.

String predicates against constants (comparison, ``IN``, ``LIKE``) run
once per dictionary entry and are memoised on the dictionary
(:meth:`DictColumn.test`); rows only gather the result.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ..errors import ExecutionError
from ..pages import ColumnType, DictColumn, MaskedColumn, Page
from ..pages.masked import concat_columns, map_values, split_nulls, valid_rows, with_nulls
from ..tree import Tree, identity


class BoundExpr(Tree):
    """Base class: a typed, vectorized expression over a page.

    Children are whatever expressions a kind's fields hold
    (:class:`~repro.tree.Tree`); a kind whose identity is coarser than
    its fields — a cosmetic name, a commutative operator, a literal —
    says so in ``identity_key`` (see :func:`~repro.tree.identity`)."""

    __slots__ = ()
    type: ColumnType

    def evaluate(self, page: Page) -> np.ndarray:
        """This node's column over ``page``.  By default the node is an
        operator: it computes over its operands' columns (:meth:`compute`),
        under SQL's rule for an operator (:func:`_strict`) where one can be
        NULL."""
        if self.nullable:
            return _strict(self, page)
        return self.compute(page)

    def compute(self, page: Page) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def nullable(self) -> bool:
        """Whether a row can evaluate to NULL: by default, when an
        operand can (NULL in, NULL out)."""
        return any(child.nullable for child in self.children())

    @cached_property
    def over_values(self) -> "BoundExpr":
        """This node over positional inputs that stand for its operands'
        values (what :func:`_strict` evaluates)."""
        return self.rebuild(lambda child, n=itertools.count(): InputRef(next(n), child.type))


def _strict(expr: BoundExpr, page: Page):
    """``expr`` under SQL's rule for an operator: a row with a NULL
    operand is NULL.  The node computes over the rows whose operands all
    hold a value (what lies under a NULL is never computed on: a CAST of
    it could raise); each NULL row then repeats a neighbour's result
    under the mask."""
    operands = [child.evaluate(page) for child in expr.children()]
    valid = valid_rows(operands)
    if valid is None:
        return expr.over_values.compute(SimpleNamespace(columns=operands, num_rows=page.num_rows))
    if not valid.any():
        return expr.type.coerce([None] * page.num_rows)
    columns = [split_nulls(col)[0][valid] for col in operands]
    out = expr.over_values.compute(SimpleNamespace(columns=columns, num_rows=len(columns[0])))
    return MaskedColumn(out[np.maximum(np.cumsum(valid) - 1, 0)], valid)


def _kleene_or(columns: list):
    """OR in three-valued logic: TRUE where a column is, else NULL where
    one is NULL, else FALSE.  AND is NOT OR NOT, as in Kleene's logic."""
    hit = np.logical_or.reduce([col.astype(bool) for col in columns])
    known = valid_rows(columns)
    return with_nulls(hit, None if known is None else hit | known)


def _choose(mask: np.ndarray, then, other):
    """Rows of ``then`` where ``mask``, of ``other`` elsewhere (CASE
    branches): one gather from both; ``then`` itself without ``other``."""
    if other is None:
        return then
    rows = np.arange(len(mask))
    return concat_columns([other, then])[np.where(mask, rows + len(mask), rows)]


@dataclass(frozen=True)
class InputRef(BoundExpr):
    """Reference to a column of the input page by position."""

    index: int
    type: ColumnType
    name: str = ""
    #: Whether the input column can hold a NULL (its schema field's).
    nullable: bool = False

    def evaluate(self, page: Page) -> np.ndarray:
        return page.columns[self.index]

    def identity_key(self, literals: bool) -> tuple:
        # The name is cosmetic; position + type is the identity (whether
        # the column can be NULL follows from the plan below it).
        return ("InputRef", self.index, self.type.value)

    def __str__(self) -> str:
        return f"${self.index}" + (f"[{self.name}]" if self.name else "")


@dataclass(frozen=True)
class Constant(BoundExpr):
    value: object
    type: ColumnType

    def evaluate(self, page: Page) -> np.ndarray:
        n = page.num_rows
        if self.type is ColumnType.STRING:
            return DictColumn.constant(self.value, n)
        return np.full(n, self.value, dtype=self.type.numpy_dtype)

    def identity_key(self, literals: bool) -> tuple:
        # Type first: keys of unlike constants order without comparing
        # their values.  A template keeps only the typed hole.
        return ("Constant", self.type.value, *([self.value] if literals else ()))

    def __str__(self) -> str:
        return repr(self.value)


_ARITH_FNS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}


@dataclass(frozen=True)
class Arithmetic(BoundExpr):
    op: str
    left: BoundExpr
    right: BoundExpr
    type: ColumnType

    def compute(self, page: Page) -> np.ndarray:
        lhs = self.left.evaluate(page)
        rhs = self.right.evaluate(page)
        if self.op == "||":
            return DictColumn.from_values(
                f"{a}{b}" for a, b in zip(lhs.tolist(), rhs.tolist())
            )
        fn = _ARITH_FNS.get(self.op)
        if fn is None:
            raise ExecutionError(f"unsupported arithmetic operator {self.op}")
        if self.op == "/" and self.type is ColumnType.FLOAT64:
            lhs = lhs.astype(np.float64, copy=False)
        result = fn(lhs, rhs)
        return result.astype(self.type.numpy_dtype, copy=False)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Negate(BoundExpr):
    operand: BoundExpr
    type: ColumnType

    def compute(self, page: Page) -> np.ndarray:
        return -self.operand.evaluate(page)


COMPARISON_FNS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(BoundExpr):
    op: str  # = <> < <= > >=
    left: BoundExpr
    right: BoundExpr
    type: ColumnType = ColumnType.BOOL

    def compute(self, page: Page) -> np.ndarray:
        fn = COMPARISON_FNS.get(self.op)
        if fn is None:
            raise ExecutionError(f"unsupported comparison {self.op}")
        return fn(self.left.evaluate(page), self.right.evaluate(page))

    def identity_key(self, literals: bool) -> tuple:
        op = self.op
        lhs, rhs = identity(self.left, literals), identity(self.right, literals)
        if op in (">", ">="):
            # a > b  ==  b < a: one canonical direction.
            op, lhs, rhs = "<" + op[1:], rhs, lhs
        elif op in ("=", "<>") and rhs < lhs:
            lhs, rhs = rhs, lhs
        return ("Comparison", op, lhs, rhs)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def _connective_key(expr, literals: bool) -> tuple:
    """AND / OR: nested terms of the same connective flattened, then
    sorted — both are result-exact under any order."""
    tag = type(expr).__name__
    keys: list = []
    for term in expr.terms:
        key = identity(term, literals)
        if key[0] == tag:
            keys.extend(key[1:])
        else:
            keys.append(key)
    return (tag, *sorted(keys))


@dataclass(frozen=True)
class BoolAnd(BoundExpr):
    terms: tuple[BoundExpr, ...]
    type: ColumnType = ColumnType.BOOL

    identity_key = _connective_key

    def evaluate(self, page: Page) -> np.ndarray:
        negated = [map_values(np.logical_not, term.evaluate(page)) for term in self.terms]
        return map_values(np.logical_not, _kleene_or(negated))

    def __str__(self) -> str:
        return "(" + " AND ".join(map(str, self.terms)) + ")"


@dataclass(frozen=True)
class BoolOr(BoundExpr):
    terms: tuple[BoundExpr, ...]
    type: ColumnType = ColumnType.BOOL

    identity_key = _connective_key

    def evaluate(self, page: Page) -> np.ndarray:
        return _kleene_or([term.evaluate(page) for term in self.terms])

    def __str__(self) -> str:
        return "(" + " OR ".join(map(str, self.terms)) + ")"


@dataclass(frozen=True)
class BoolNot(BoundExpr):
    operand: BoundExpr
    type: ColumnType = ColumnType.BOOL

    def evaluate(self, page: Page) -> np.ndarray:
        return map_values(np.logical_not, self.operand.evaluate(page))


@dataclass(frozen=True)
class InSet(BoundExpr):
    value: BoundExpr
    options: frozenset
    type: ColumnType = ColumnType.BOOL

    def compute(self, page: Page) -> np.ndarray:
        arr = self.value.evaluate(page)
        if isinstance(arr, DictColumn):
            return arr.test(("in", self.options), self.options.__contains__)
        return np.isin(arr, np.array(sorted(self.options)))

    def identity_key(self, literals: bool) -> tuple:
        # A template keeps the arity: IN over 2 vs. 200 options is a
        # different selectivity and cost.
        options = tuple(sorted(self.options)) if literals else len(self.options)
        return ("InSet", identity(self.value, literals), options)


@dataclass(frozen=True)
class LikeMatch(BoundExpr):
    value: BoundExpr
    pattern: str
    negated: bool = False
    type: ColumnType = ColumnType.BOOL

    def compute(self, page: Page) -> np.ndarray:
        from .functions import like_matcher

        result = self.value.evaluate(page).test(
            ("like", self.pattern), like_matcher(self.pattern)
        )
        return ~result if self.negated else result

    def identity_key(self, literals: bool) -> tuple:
        pattern = [self.pattern] if literals else ()
        return ("LikeMatch", self.negated, identity(self.value, literals), *pattern)

    def __str__(self) -> str:
        return f"({self.value} LIKE {self.pattern!r})"


@dataclass(frozen=True)
class IsNull(BoundExpr):
    value: BoundExpr
    negated: bool = False
    type: ColumnType = ColumnType.BOOL

    nullable = False

    def evaluate(self, page: Page) -> np.ndarray:
        valid = valid_rows([self.value.evaluate(page)])
        if valid is None:  # no row is NULL
            return np.full(page.num_rows, self.negated)
        return valid if self.negated else ~valid


@dataclass(frozen=True)
class CaseWhen(BoundExpr):
    whens: tuple[tuple[BoundExpr, BoundExpr], ...]
    default: BoundExpr | None
    type: ColumnType

    @cached_property
    def nullable(self) -> bool:
        """Without ELSE a row no branch takes is NULL; a NULL condition
        takes no branch."""
        values = [value for _, value in self.whens] + [self.default]
        return self.default is None or any(v.nullable for v in values)

    def evaluate(self, page: Page) -> np.ndarray:
        n = page.num_rows
        result = None
        decided = np.zeros(n, dtype=bool)
        for cond, value in self.whens:
            mask = cond.evaluate(page).astype(bool, copy=False) & ~decided
            if mask.any():
                result = _choose(mask, value.evaluate(page), result)
            decided |= mask
        if self.default is not None:
            rest = ~decided
            if rest.any():
                result = _choose(rest, self.default.evaluate(page), result)
            decided = None
        if result is None:  # no row took a branch
            result = self.type.coerce([None] * n)
        elif self.type is not ColumnType.STRING and result.dtype != self.type.numpy_dtype:
            result = map_values(lambda v: v.astype(self.type.numpy_dtype), result)
        return result if decided is None else with_nulls(result, decided)


@dataclass(frozen=True)
class ExtractDatePart(BoundExpr):
    unit: str  # year | month | day
    source: BoundExpr
    type: ColumnType = ColumnType.INT64

    def compute(self, page: Page) -> np.ndarray:
        days = self.source.evaluate(page).astype("datetime64[D]")
        if self.unit == "year":
            return days.astype("datetime64[Y]").astype(np.int64) + 1970
        if self.unit == "month":
            months = days.astype("datetime64[M]").astype(np.int64)
            return months % 12 + 1
        if self.unit == "day":
            months = days.astype("datetime64[M]")
            return (days - months).astype(np.int64) + 1
        raise ExecutionError(f"unsupported EXTRACT unit {self.unit}")

    def __str__(self) -> str:
        return f"EXTRACT({self.unit} FROM {self.source})"


def cast_column(arr, ctype: ColumnType):
    """CAST semantics; text is produced and parsed per cell."""
    if ctype is ColumnType.STRING:
        return DictColumn.from_values(str(v) for v in arr.tolist())
    if isinstance(arr, DictColumn):
        arr = arr.decode()
    return arr.astype(ctype.numpy_dtype)


@dataclass(frozen=True)
class Cast(BoundExpr):
    value: BoundExpr
    type: ColumnType

    def compute(self, page: Page) -> np.ndarray:
        return cast_column(self.value.evaluate(page), self.type)


# ---------------------------------------------------------------------------
# Aggregate call descriptors (consumed by aggregation operators)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateCall:
    """One aggregate in an Aggregate plan node, e.g. ``sum(expr)``.

    ``arg`` is ``None`` for ``count(*)``.  ``avg`` is decomposed by the
    two-stage aggregation model into (sum, count) partials merged by the
    final aggregation (paper Section 4.1).
    """

    function: str  # sum | count | avg | min | max
    arg: BoundExpr | None
    result_type: ColumnType
    distinct: bool = False

    @cached_property
    def skips_nulls(self) -> bool:
        """Whether the argument can be NULL, rows the call then skips."""
        return self.arg is not None and self.arg.nullable

    def output_nullable(self, grouped: bool) -> bool:
        """Whether the result can be NULL: sum/min/max/avg of no non-NULL
        value — a global one over no rows, or one whose argument can be
        NULL (``count`` is 0 instead)."""
        return self.function != "count" and (not grouped or self.skips_nulls)

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        head = f"{self.function}(distinct " if self.distinct else f"{self.function}("
        return f"{head}{inner})"
