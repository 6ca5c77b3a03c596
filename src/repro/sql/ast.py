"""Abstract syntax tree for the supported SQL dialect.

The dialect covers the TPC-H subset exercised by the paper: select lists
with aliases and aggregates, implicit and explicit (INNER/LEFT/CROSS)
joins, derived tables, WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, scalar and
EXISTS subqueries, CASE, BETWEEN, IN, LIKE, EXTRACT, date and interval
literals, and arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..tree import Tree


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class ExprNode(Tree):
    """Base class for AST expressions (unbound; names unresolved).  A
    subquery is a statement, not an expression: walks stop at it."""

    __slots__ = ()


@dataclass(frozen=True)
class ColumnName(ExprNode):
    """A possibly-qualified column reference, e.g. ``n1.n_name``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class NumberLiteral(ExprNode):
    text: str

    @property
    def is_integer(self) -> bool:
        return "." not in self.text and "e" not in self.text.lower()


@dataclass(frozen=True)
class StringLiteral(ExprNode):
    value: str


@dataclass(frozen=True)
class BooleanLiteral(ExprNode):
    value: bool


@dataclass(frozen=True)
class NullLiteral(ExprNode):
    pass


@dataclass(frozen=True)
class DateLiteral(ExprNode):
    """``DATE 'YYYY-MM-DD'``."""

    text: str


@dataclass(frozen=True)
class IntervalLiteral(ExprNode):
    """``INTERVAL '<n>' DAY|MONTH|YEAR``."""

    count: int
    unit: str  # "day" | "month" | "year"


@dataclass(frozen=True)
class UnaryOp(ExprNode):
    op: str  # "-" | "+" | "not"
    operand: ExprNode


@dataclass(frozen=True)
class BinaryOp(ExprNode):
    """Arithmetic, comparison, or logical binary operation."""

    op: str  # + - * / % = <> < <= > >= and or ||
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class BetweenOp(ExprNode):
    value: ExprNode
    low: ExprNode
    high: ExprNode
    negated: bool = False


@dataclass(frozen=True)
class InListOp(ExprNode):
    value: ExprNode
    options: tuple[ExprNode, ...]
    negated: bool = False


@dataclass(frozen=True)
class LikeOp(ExprNode):
    value: ExprNode
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class IsNullOp(ExprNode):
    value: ExprNode
    negated: bool = False


@dataclass(frozen=True)
class CaseExpr(ExprNode):
    whens: tuple[tuple[ExprNode, ExprNode], ...]
    default: Optional[ExprNode]


@dataclass(frozen=True)
class ExtractExpr(ExprNode):
    """``EXTRACT(YEAR|MONTH|DAY FROM expr)``."""

    unit: str
    source: ExprNode


@dataclass(frozen=True)
class CastExpr(ExprNode):
    value: ExprNode
    target: str  # type name


@dataclass(frozen=True)
class FunctionCall(ExprNode):
    """Aggregate or scalar function call, e.g. ``sum(x)``, ``count(*)``."""

    name: str
    args: tuple[ExprNode, ...]
    distinct: bool = False
    is_star: bool = False  # count(*)


@dataclass(frozen=True)
class ScalarSubquery(ExprNode):
    query: "SelectStatement"


@dataclass(frozen=True)
class ExistsSubquery(ExprNode):
    query: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(ExprNode):
    value: ExprNode
    query: "SelectStatement"
    negated: bool = False


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------
class RelationNode:
    """Base class for FROM-clause items."""

    __slots__ = ()


@dataclass(frozen=True)
class TableRef(RelationNode):
    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef(RelationNode):
    query: "SelectStatement"
    alias: str


@dataclass(frozen=True)
class JoinRef(RelationNode):
    """Explicit ``A JOIN B ON cond`` (or CROSS JOIN when cond is None)."""

    left: RelationNode
    right: RelationNode
    join_type: str  # "inner" | "left" | "cross"
    condition: Optional[ExprNode]


# ---------------------------------------------------------------------------
# Statement
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    expr: ExprNode
    alias: Optional[str] = None
    is_star: bool = False


@dataclass(frozen=True)
class OrderItem:
    expr: ExprNode
    ascending: bool = True


@dataclass
class SelectStatement:
    items: list[SelectItem] = field(default_factory=list)
    relations: list[RelationNode] = field(default_factory=list)
    where: Optional[ExprNode] = None
    group_by: list[ExprNode] = field(default_factory=list)
    having: Optional[ExprNode] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False

    #: By identity: an expression holding a subquery must hash (the binder
    #: looks every node up in the GROUP BY map) to reach the ``AnalysisError``
    #: that names its position, where a mutable dataclass has no hash.
    __hash__ = object.__hash__


Node = Union[ExprNode, RelationNode, SelectStatement]
