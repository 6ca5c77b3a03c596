"""Semantic analysis: scopes and expression binding.

The binder resolves AST expressions against a :class:`Scope` (an ordered
list of relations with optional binding names) to typed, vectorized
:class:`~repro.sql.expressions.BoundExpr` trees.  Column references that
resolve to an *enclosing* scope become :class:`OuterColumn` markers, which
the planner's decorrelation machinery consumes (Q2-style correlated scalar
subqueries, Q4-style EXISTS).

Subquery AST nodes are handled by the planner before binding; if one
reaches the binder it is an unsupported position (e.g. a subquery inside a
CASE), reported as an :class:`~repro.errors.AnalysisError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AnalysisError
from ..pages import ColumnType, Field, Schema
from ..util import add_months, add_years, date_to_days
from . import ast
from .expressions import (
    Arithmetic,
    BoolAnd,
    BoolNot,
    BoolOr,
    BoundExpr,
    CaseWhen,
    Cast,
    Comparison,
    Constant,
    ExtractDatePart,
    InputRef,
    InSet,
    IsNull,
    LikeMatch,
    Negate,
)
from .functions import AGGREGATE_FUNCTIONS, arithmetic_result_type, comparable


@dataclass(frozen=True)
class OuterColumn(BoundExpr):
    """A column resolved in an enclosing query scope (correlation marker).

    Never evaluated directly — decorrelation replaces it with a join key.
    ``levels`` counts how many scopes up the column resolved (1 = parent).
    """

    levels: int
    index: int
    type: ColumnType
    name: str = ""

    def evaluate(self, page):  # pragma: no cover - defensive
        raise AnalysisError(f"correlated column {self.name} not decorrelated")

    def __str__(self) -> str:
        return f"outer({self.levels}).${self.index}"


class Scope:
    """An ordered set of relations visible to name resolution.

    Each relation is ``(binding_name | None, schema)``; columns get global
    positions in declaration order.  ``outer`` links to the enclosing query
    scope for correlated subqueries.
    """

    def __init__(
        self,
        relations: list[tuple[str | None, Schema]],
        outer: "Scope | None" = None,
    ):
        self.relations = list(relations)
        self.outer = outer
        self.offsets: list[int] = []
        total = 0
        for _, schema in self.relations:
            self.offsets.append(total)
            total += len(schema)
        self.total_columns = total

    # -- resolution ----------------------------------------------------------
    def resolve(self, name: str, qualifier: str | None) -> tuple[int, int, Field]:
        """Resolve a column to ``(levels_up, global_index, field)``."""
        found: list[tuple[int, Field]] = []
        for rel_index, (binding, schema) in enumerate(self.relations):
            if qualifier is not None and binding != qualifier:
                continue
            if schema.contains(name):
                local = schema.index_of(name)
                found.append((self.offsets[rel_index] + local, schema.fields[local]))
        if len(found) > 1:
            raise AnalysisError(f"ambiguous column reference: {qualifier + '.' if qualifier else ''}{name}")
        if len(found) == 1:
            return 0, *found[0]
        if self.outer is not None:
            levels, index, field = self.outer.resolve(name, qualifier)
            return levels + 1, index, field
        target = f"{qualifier}.{name}" if qualifier else name
        raise AnalysisError(f"column not found: {target}")


class ExpressionBinder:
    """Binds AST expressions against a scope.

    ``aggregates`` mode: when a list is supplied, aggregate function calls
    are bound (their arguments resolved against the scope), appended to the
    list, and replaced by :class:`InputRef` placeholders pointing *past*
    ``agg_input_width`` — the planner sets that to the number of group-by
    keys so placeholders line up with the aggregation output schema.
    """

    def __init__(
        self,
        scope: Scope,
        aggregates: list | None = None,
        agg_offset: int = 0,
        group_expr_map: dict[ast.ExprNode, int] | None = None,
        post_aggregation: bool = False,
    ):
        self.scope = scope
        self.aggregates = aggregates
        self.agg_offset = agg_offset
        self.group_expr_map = group_expr_map or {}
        #: When binding expressions *above* an aggregation, plain column
        #: references are only legal through the group-by map.
        self.post_aggregation = post_aggregation

    # -- entry point ----------------------------------------------------
    def bind(self, node: ast.ExprNode) -> BoundExpr:
        if node in self.group_expr_map:
            index = self.group_expr_map[node]
            # Type comes from re-binding the group expression itself.
            inner = ExpressionBinder(self.scope).bind(node)
            return InputRef(index, inner.type, str(node), inner.nullable)
        method = getattr(self, f"_bind_{type(node).__name__}", None)
        if method is None:
            raise AnalysisError(f"unsupported expression: {type(node).__name__}")
        return method(node)

    def bind_predicate(self, node: ast.ExprNode) -> BoundExpr:
        bound = self.bind(node)
        if bound.type is not ColumnType.BOOL:
            raise AnalysisError(f"predicate is not boolean: {node}")
        return bound

    # -- literals ----------------------------------------------------------
    def _bind_NumberLiteral(self, node: ast.NumberLiteral) -> BoundExpr:
        if node.is_integer:
            return Constant(int(node.text), ColumnType.INT64)
        return Constant(float(node.text), ColumnType.FLOAT64)

    def _bind_StringLiteral(self, node: ast.StringLiteral) -> BoundExpr:
        return Constant(node.value, ColumnType.STRING)

    def _bind_BooleanLiteral(self, node: ast.BooleanLiteral) -> BoundExpr:
        return Constant(node.value, ColumnType.BOOL)

    def _bind_NullLiteral(self, node: ast.NullLiteral) -> BoundExpr:
        raise AnalysisError("NULL literals are not supported (NULL arises from CASE and aggregates)")

    def _bind_DateLiteral(self, node: ast.DateLiteral) -> BoundExpr:
        try:
            return Constant(date_to_days(node.text), ColumnType.DATE)
        except ValueError as exc:
            raise AnalysisError(f"bad date literal {node.text!r}") from exc

    # -- columns ----------------------------------------------------------
    def _bind_ColumnName(self, node: ast.ColumnName) -> BoundExpr:
        if self.post_aggregation:
            raise AnalysisError(
                f"column {node} must appear in GROUP BY or inside an aggregate"
            )
        levels, index, field = self.scope.resolve(node.name, node.qualifier)
        if levels == 0:
            return InputRef(index, field.type, field.name, field.nullable)
        return OuterColumn(levels, index, field.type, field.name)

    # -- operators ----------------------------------------------------------
    def _bind_UnaryOp(self, node: ast.UnaryOp) -> BoundExpr:
        if node.op == "not":
            operand = self.bind(node.operand)
            if operand.type is not ColumnType.BOOL:
                raise AnalysisError("NOT requires a boolean operand")
            return BoolNot(operand)
        operand = self.bind(node.operand)
        if not operand.type.is_numeric:
            raise AnalysisError(f"unary {node.op} requires a numeric operand")
        if node.op == "+":
            return operand
        if isinstance(operand, Constant):
            return Constant(-operand.value, operand.type)
        return Negate(operand, operand.type)

    def _bind_BinaryOp(self, node: ast.BinaryOp) -> BoundExpr:
        if node.op in ("and", "or"):
            left = self.bind(node.left)
            right = self.bind(node.right)
            if left.type is not ColumnType.BOOL or right.type is not ColumnType.BOOL:
                raise AnalysisError(f"{node.op.upper()} requires boolean operands")
            cls = BoolAnd if node.op == "and" else BoolOr
            terms: list[BoundExpr] = []
            for term in (left, right):
                if isinstance(term, cls):
                    terms.extend(term.terms)
                else:
                    terms.append(term)
            return cls(tuple(terms))

        if node.op in ("=", "<>", "<", "<=", ">", ">="):
            left = self.bind(node.left)
            right = self.bind(node.right)
            if not comparable(left.type, right.type):
                raise AnalysisError(
                    f"cannot compare {left.type.value} with {right.type.value}"
                )
            return Comparison(node.op, left, right)

        # Arithmetic, possibly involving interval literals (folded here).
        if isinstance(node.right, ast.IntervalLiteral):
            return self._bind_date_interval(node.left, node.op, node.right)
        if isinstance(node.left, ast.IntervalLiteral):
            raise AnalysisError("INTERVAL must be the right-hand operand")
        left = self.bind(node.left)
        right = self.bind(node.right)
        result_type = arithmetic_result_type(node.op, left.type, right.type)
        if isinstance(left, Constant) and isinstance(right, Constant):
            return _fold_constant(node.op, left, right, result_type)
        return Arithmetic(node.op, left, right, result_type)

    def _bind_date_interval(
        self, left_node: ast.ExprNode, op: str, interval: ast.IntervalLiteral
    ) -> BoundExpr:
        if op not in ("+", "-"):
            raise AnalysisError(f"cannot apply {op} to an INTERVAL")
        left = self.bind(left_node)
        if left.type is not ColumnType.DATE:
            raise AnalysisError("INTERVAL arithmetic requires a DATE operand")
        count = interval.count if op == "+" else -interval.count
        if isinstance(left, Constant):
            if interval.unit == "day":
                return Constant(left.value + count, ColumnType.DATE)
            if interval.unit == "month":
                return Constant(add_months(left.value, count), ColumnType.DATE)
            return Constant(add_years(left.value, count), ColumnType.DATE)
        if interval.unit == "day":
            return Arithmetic("+", left, Constant(count, ColumnType.INT64), ColumnType.DATE)
        raise AnalysisError(
            "month/year INTERVAL arithmetic on non-constant dates is not supported"
        )

    def _bind_BetweenOp(self, node: ast.BetweenOp) -> BoundExpr:
        value = self.bind(node.value)
        low = self.bind(node.low)
        high = self.bind(node.high)
        for bound in (low, high):
            if not comparable(value.type, bound.type):
                raise AnalysisError("BETWEEN bounds are not comparable with the value")
        result = BoolAnd((Comparison(">=", value, low), Comparison("<=", value, high)))
        return BoolNot(result) if node.negated else result

    def _bind_InListOp(self, node: ast.InListOp) -> BoundExpr:
        value = self.bind(node.value)
        options = []
        for option in node.options:
            bound = self.bind(option)
            if not isinstance(bound, Constant):
                raise AnalysisError("IN list items must be constants")
            if not comparable(value.type, bound.type):
                raise AnalysisError("IN list item type mismatch")
            options.append(bound.value)
        result = InSet(value, frozenset(options))
        return BoolNot(result) if node.negated else result

    def _bind_LikeOp(self, node: ast.LikeOp) -> BoundExpr:
        value = self.bind(node.value)
        if value.type is not ColumnType.STRING:
            raise AnalysisError("LIKE requires a string operand")
        return LikeMatch(value, node.pattern, node.negated)

    def _bind_IsNullOp(self, node: ast.IsNullOp) -> BoundExpr:
        return IsNull(self.bind(node.value), node.negated)

    def _bind_CaseExpr(self, node: ast.CaseExpr) -> BoundExpr:
        whens = []
        value_types: list[ColumnType] = []
        for cond_node, value_node in node.whens:
            cond = self.bind(cond_node)
            if cond.type is not ColumnType.BOOL:
                raise AnalysisError("CASE WHEN condition must be boolean")
            value = self.bind(value_node)
            whens.append((cond, value))
            value_types.append(value.type)
        default = self.bind(node.default) if node.default is not None else None
        if default is not None:
            value_types.append(default.type)
        result_type = _common_type(value_types)
        return CaseWhen(tuple(whens), default, result_type)

    def _bind_ExtractExpr(self, node: ast.ExtractExpr) -> BoundExpr:
        source = self.bind(node.source)
        if source.type is not ColumnType.DATE:
            raise AnalysisError("EXTRACT requires a DATE operand")
        return ExtractDatePart(node.unit, source)

    def _bind_CastExpr(self, node: ast.CastExpr) -> BoundExpr:
        target_map = {
            "int": ColumnType.INT64,
            "integer": ColumnType.INT64,
            "bigint": ColumnType.INT64,
            "double": ColumnType.FLOAT64,
            "float": ColumnType.FLOAT64,
            "varchar": ColumnType.STRING,
            "date": ColumnType.DATE,
        }
        target = target_map.get(node.target.lower())
        if target is None:
            raise AnalysisError(f"unsupported cast target {node.target}")
        return Cast(self.bind(node.value), target)

    def _bind_FunctionCall(self, node: ast.FunctionCall) -> BoundExpr:
        if node.name in AGGREGATE_FUNCTIONS:
            return self._bind_aggregate(node)
        raise AnalysisError(f"unknown function: {node.name}")

    def _bind_aggregate(self, node: ast.FunctionCall) -> BoundExpr:
        from .expressions import AggregateCall
        from .functions import aggregate_result_type

        if self.aggregates is None:
            raise AnalysisError(
                f"aggregate {node.name}() not allowed in this context"
            )
        if node.distinct:
            raise AnalysisError("DISTINCT aggregates are not supported")
        if node.is_star:
            if node.name != "count":
                raise AnalysisError(f"{node.name}(*) is not valid")
            arg = None
            arg_type = None
        else:
            if len(node.args) != 1:
                raise AnalysisError(f"{node.name}() takes exactly one argument")
            inner_binder = ExpressionBinder(self.scope)
            arg = inner_binder.bind(node.args[0])
            if any(isinstance(e, OuterColumn) for e in arg.walk()):
                raise AnalysisError("correlated aggregate arguments are not supported")
            arg_type = arg.type
        call = AggregateCall(node.name, arg, aggregate_result_type(node.name, arg_type))
        # Deduplicate structurally identical aggregate calls.
        if call not in self.aggregates:
            self.aggregates.append(call)
        nullable = call.output_nullable(grouped=self.agg_offset > 0)
        return InputRef(self.agg_offset + self.aggregates.index(call), call.result_type, str(call), nullable)

    # -- subqueries (must be consumed by the planner first) ----------------
    def _bind_ScalarSubquery(self, node: ast.ScalarSubquery) -> BoundExpr:
        raise AnalysisError("scalar subquery in unsupported position")

    def _bind_ExistsSubquery(self, node: ast.ExistsSubquery) -> BoundExpr:
        raise AnalysisError("EXISTS in unsupported position (must be a WHERE conjunct)")

    def _bind_InSubquery(self, node: ast.InSubquery) -> BoundExpr:
        raise AnalysisError("IN (subquery) in unsupported position (must be a WHERE conjunct)")


def _common_type(types: list[ColumnType]) -> ColumnType:
    unique = set(types)
    if len(unique) == 1:
        return types[0]
    if unique <= {ColumnType.INT64, ColumnType.FLOAT64}:
        return ColumnType.FLOAT64
    raise AnalysisError(f"incompatible CASE branch types: {sorted(t.value for t in unique)}")


def _fold_constant(op: str, left: Constant, right: Constant, result_type: ColumnType) -> Constant:
    ops = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b if result_type is ColumnType.FLOAT64 else a // b,
        "%": lambda a, b: a % b,
        "||": lambda a, b: f"{a}{b}",
    }
    value = ops[op](left.value, right.value)
    if result_type is ColumnType.INT64:
        value = int(value)
    return Constant(value, result_type)


def split_conjuncts(node: ast.ExprNode) -> list[ast.ExprNode]:
    """Flatten an AST predicate into top-level AND conjuncts."""
    if isinstance(node, ast.BinaryOp) and node.op == "and":
        return split_conjuncts(node.left) + split_conjuncts(node.right)
    return [node]
