"""Logical plan nodes (relational algebra over bound expressions)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..pages import ColumnType, Field, Schema
from ..sql.expressions import AggregateCall, BoundExpr
from ..tree import Tree, identity


class JoinType(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"    # EXISTS
    ANTI = "anti"    # NOT EXISTS
    CROSS = "cross"


class LogicalNode(Tree):
    """Base class; every node exposes an output :class:`Schema`."""

    schema: Schema

    @property
    def name(self) -> str:
        return type(self).__name__.removeprefix("Logical")

    def describe(self) -> str:
        return self.name


@dataclass
class LogicalScan(LogicalNode):
    table: str
    schema: Schema
    #: Positions of the selected columns within the base table schema
    #: (projection pruning narrows this).
    column_indexes: tuple[int, ...]

    def describe(self) -> str:
        return f"Scan[{self.table}]({', '.join(self.schema.names())})"


@dataclass
class LogicalFilter(LogicalNode):
    child: LogicalNode
    predicate: BoundExpr

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def identity_key(self, literals: bool) -> tuple:
        # Consecutive filters are one conjunction, whatever order and
        # nesting the conjuncts were written in.
        conjuncts = identity(self.predicate, literals)
        conjuncts = conjuncts[1:] if conjuncts[0] == "BoolAnd" else (conjuncts,)
        child = identity(self.child, literals)
        if child[0] == "LogicalFilter":
            conjuncts, child = conjuncts + child[1], child[2]
        return ("LogicalFilter", tuple(sorted(conjuncts)), child)

    def describe(self) -> str:
        return f"Filter[{self.predicate}]"


@dataclass
class LogicalProject(LogicalNode):
    child: LogicalNode
    exprs: list[BoundExpr]
    schema: Schema

    @classmethod
    def of(cls, child: LogicalNode, exprs: list[BoundExpr], names: list[str]) -> "LogicalProject":
        schema = Schema(Field(n, e.type, e.nullable) for n, e in zip(names, exprs))
        return cls(child, list(exprs), schema)

    def describe(self) -> str:
        cols = ", ".join(f"{n}={e}" for n, e in zip(self.schema.names(), self.exprs))
        return f"Project[{cols}]"


@dataclass
class LogicalJoin(LogicalNode):
    """Hash join: ``left`` is the probe side, ``right`` the build side."""

    left: LogicalNode
    right: LogicalNode
    join_type: JoinType
    left_keys: list[int]
    right_keys: list[int]
    residual: BoundExpr | None = None

    @property
    def schema(self) -> Schema:
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            return self.left.schema
        return self.left.schema.concat(self.right.schema)

    def describe(self) -> str:
        keys = ", ".join(
            f"${l}=${r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        extra = f" residual={self.residual}" if self.residual is not None else ""
        return f"Join[{self.join_type.value} on {keys or 'TRUE'}{extra}]"


@dataclass
class LogicalAggregate(LogicalNode):
    """Hash aggregation; group keys are input column positions."""

    child: LogicalNode
    group_keys: list[int]
    aggregates: list[AggregateCall]
    schema: Schema

    @classmethod
    def of(
        cls,
        child: LogicalNode,
        group_keys: list[int],
        aggregates: list[AggregateCall],
        names: list[str] | None = None,
    ) -> "LogicalAggregate":
        fields = []
        child_schema = child.schema
        for i, key in enumerate(group_keys):
            base = child_schema.fields[key]
            name = names[i] if names else base.name
            fields.append(Field(name, base.type, base.nullable))
        for j, agg in enumerate(aggregates):
            name = (
                names[len(group_keys) + j]
                if names
                else f"{agg.function}_{len(group_keys) + j}"
            )
            fields.append(Field(name, agg.result_type, agg.output_nullable(bool(group_keys))))
        return cls(child, list(group_keys), list(aggregates), Schema(fields))

    def describe(self) -> str:
        keys = ", ".join(f"${k}" for k in self.group_keys)
        aggs = ", ".join(map(str, self.aggregates))
        return f"Aggregate[keys=({keys}) aggs=({aggs})]"


@dataclass
class LogicalSort(LogicalNode):
    child: LogicalNode
    #: (column index, ascending) pairs.
    sort_keys: list[tuple[int, bool]]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        keys = ", ".join(f"${i}{'' if asc else ' desc'}" for i, asc in self.sort_keys)
        return f"Sort[{keys}]"


@dataclass
class LogicalTopN(LogicalNode):
    child: LogicalNode
    count: int
    sort_keys: list[tuple[int, bool]]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        keys = ", ".join(f"${i}{'' if asc else ' desc'}" for i, asc in self.sort_keys)
        return f"TopN[{self.count} by {keys}]"


@dataclass
class LogicalLimit(LogicalNode):
    child: LogicalNode
    count: int

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        return f"Limit[{self.count}]"


#: Pre-order traversal of a logical plan, as a function: ``walk(plan)``.
walk = LogicalNode.walk
