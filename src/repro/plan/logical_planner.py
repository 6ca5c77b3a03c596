"""Statement -> logical plan: binding, decorrelation, join ordering.

This is the optimizer front half.  It performs, in one construction pass:

* FROM-clause flattening (implicit joins, INNER JOIN ... ON, derived tables),
* predicate classification (single-leaf pushdown, equi-join edge
  extraction, residual predicates, common-factor extraction from OR),
* subquery decorrelation — EXISTS/NOT EXISTS become SEMI/ANTI joins and
  correlated scalar subqueries (TPC-H Q2) become grouped-aggregate leaves
  joined on their correlation keys,
* greedy join ordering with build-side selection by estimated size,
* two-phase-friendly aggregation planning (pre-projection + hash
  aggregate + post-projection), HAVING, ORDER BY / TopN / LIMIT.

Projection pruning runs afterwards as a rule (:mod:`.optimizer.rules`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data import Catalog
from ..errors import AnalysisError, PlanningError
from ..pages import ColumnType, Schema
from ..sql import ast
from ..sql.analyzer import ExpressionBinder, OuterColumn, Scope, split_conjuncts
from ..sql.expressions import (
    AggregateCall,
    BoolOr,
    BoundExpr,
    Comparison,
    InputRef,
    conjoin,
)
from ..sql.functions import AGGREGATE_FUNCTIONS
from .expr_utils import input_refs, remap_expr
from .logical import (
    JoinType,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTopN,
)
from .optimizer.join_order import JoinEdge, order_joins
from .optimizer.stats import estimate_rows


@dataclass
class _Leaf:
    """A FROM-clause input with its global column id range."""

    plan: LogicalNode
    binding: str | None
    offset: int

    @property
    def width(self) -> int:
        return len(self.plan.schema)

    def globals(self) -> list[int]:
        return list(range(self.offset, self.offset + self.width))


@dataclass
class _SemiSpec:
    """A pending SEMI/ANTI join from EXISTS or IN (subquery)."""

    inner: LogicalNode
    outer_globals: list[int]
    inner_cols: list[int]
    anti: bool


class LogicalPlanner:
    """Plans parsed SELECT statements against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def plan(self, stmt: ast.SelectStatement) -> LogicalNode:
        return self._plan_query(stmt, outer_scope=None)

    # ------------------------------------------------------------------
    # FROM/WHERE planning (shared by main query and subqueries)
    # ------------------------------------------------------------------
    def _collect_leaves(
        self, relations: list[ast.RelationNode]
    ) -> tuple[list[_Leaf], list[ast.ExprNode]]:
        leaves: list[_Leaf] = []
        on_conjuncts: list[ast.ExprNode] = []
        offset = 0

        def add_leaf(plan: LogicalNode, binding: str | None) -> None:
            nonlocal offset
            leaves.append(_Leaf(plan, binding, offset))
            offset += len(plan.schema)

        def visit(rel: ast.RelationNode) -> None:
            if isinstance(rel, ast.TableRef):
                schema = self.catalog.schema(rel.name)
                add_leaf(
                    LogicalScan(rel.name.lower(), schema, tuple(range(len(schema)))),
                    rel.binding_name,
                )
            elif isinstance(rel, ast.SubqueryRef):
                subplan = self._plan_query(rel.query, outer_scope=None)
                add_leaf(subplan, rel.alias)
            elif isinstance(rel, ast.JoinRef):
                if rel.join_type == "left":
                    raise PlanningError("LEFT JOIN is not supported")
                visit(rel.left)
                visit(rel.right)
                if rel.condition is not None:
                    on_conjuncts.extend(split_conjuncts(rel.condition))
            else:  # pragma: no cover - parser produces only the above
                raise PlanningError(f"unsupported relation {type(rel).__name__}")

        for rel in relations:
            visit(rel)
        if not leaves:
            raise PlanningError("queries without FROM are not supported")
        return leaves, on_conjuncts

    def _plan_from_where(
        self,
        stmt: ast.SelectStatement,
        outer_scope: Scope | None,
    ) -> tuple[LogicalNode, list[int], Scope, list[tuple[int, BoundExpr]]]:
        """Returns ``(tree, layout, scope, correlations)``.

        ``layout`` maps output positions of ``tree`` to global column ids of
        ``scope`` (plus extension ids for scalar-subquery leaves).
        ``correlations`` are (outer_global_id, local_bound_expr) pairs for
        conjuncts referencing the enclosing query.
        """
        leaves, on_conjuncts = self._collect_leaves(stmt.relations)
        scope = Scope([(leaf.binding, leaf.plan.schema) for leaf in leaves], outer_scope)
        next_ext = scope.total_columns  # global ids for scalar-subquery leaves

        conjunct_asts: list[ast.ExprNode] = []
        if stmt.where is not None:
            conjunct_asts.extend(split_conjuncts(stmt.where))
        conjunct_asts.extend(on_conjuncts)
        conjunct_asts = _extract_common_factors(conjunct_asts)

        binder = ExpressionBinder(scope)
        pushed: dict[int, list[BoundExpr]] = {i: [] for i in range(len(leaves))}
        edges: list[JoinEdge] = []
        residuals: list[BoundExpr] = []
        semi_specs: list[_SemiSpec] = []
        correlations: list[tuple[int, BoundExpr]] = []

        def leaf_of(global_id: int) -> int:
            for i in reversed(range(len(leaves))):
                if global_id >= leaves[i].offset:
                    return i
            raise PlanningError(f"global id {global_id} out of range")

        def classify(bound: BoundExpr) -> None:
            outer_refs = [n for n in bound.walk() if isinstance(n, OuterColumn)]
            if outer_refs:
                self._record_correlation(bound, correlations)
                return
            refs = input_refs(bound)
            ref_leaves = {leaf_of(r) for r in refs}
            if len(ref_leaves) <= 1:
                target = next(iter(ref_leaves)) if ref_leaves else 0
                pushed[target].append(bound)
                return
            if (
                isinstance(bound, Comparison)
                and bound.op == "="
                and isinstance(bound.left, InputRef)
                and isinstance(bound.right, InputRef)
                and leaf_of(bound.left.index) != leaf_of(bound.right.index)
            ):
                la, lb = bound.left.index, bound.right.index
                edges.append(JoinEdge(leaf_of(la), la, leaf_of(lb), lb))
                return
            residuals.append(bound)

        for conjunct in conjunct_asts:
            if isinstance(conjunct, ast.ExistsSubquery):
                semi_specs.append(self._plan_exists(conjunct.query, scope, anti=False))
                continue
            if (
                isinstance(conjunct, ast.UnaryOp)
                and conjunct.op == "not"
                and isinstance(conjunct.operand, ast.ExistsSubquery)
            ):
                semi_specs.append(
                    self._plan_exists(conjunct.operand.query, scope, anti=True)
                )
                continue
            if isinstance(conjunct, ast.InSubquery):
                semi_specs.append(self._plan_in_subquery(conjunct, scope, binder))
                continue
            scalar = _scalar_side(conjunct)
            if scalar is not None:
                op, value_ast, sub_stmt = scalar
                leaf_plan, outer_ids, ext_offset = self._plan_scalar(
                    sub_stmt, scope, next_ext
                )
                next_ext = ext_offset + len(leaf_plan.schema)
                leaf = _Leaf(leaf_plan, None, ext_offset)
                leaves.append(leaf)
                pushed[len(leaves) - 1] = []
                value_col = ext_offset + len(leaf_plan.schema) - 1
                value_field = leaf_plan.schema.fields[-1]
                for i, outer_id in enumerate(outer_ids):
                    edges.append(
                        JoinEdge(leaf_of(outer_id), outer_id, len(leaves) - 1, ext_offset + i)
                    )
                bound_value = binder.bind(value_ast)
                residual = Comparison(
                    op,
                    bound_value,
                    InputRef(value_col, value_field.type, "scalar", value_field.nullable),
                )
                if outer_ids:
                    residuals.append(residual)
                else:
                    # Uncorrelated: cross join the 1-row aggregate leaf.
                    residuals.append(residual)
                continue
            classify(binder.bind_predicate(conjunct))

        tree, layout = self._build_join_tree(leaves, pushed, edges, residuals)

        for spec in semi_specs:
            positions = [layout.index(g) for g in spec.outer_globals]
            tree = LogicalJoin(
                tree,
                spec.inner,
                JoinType.ANTI if spec.anti else JoinType.SEMI,
                positions,
                spec.inner_cols,
            )
        return tree, layout, scope, correlations

    def _record_correlation(
        self, bound: BoundExpr, correlations: list[tuple[int, BoundExpr]]
    ) -> None:
        if not (isinstance(bound, Comparison) and bound.op == "="):
            raise AnalysisError(
                "correlated predicates must be equality comparisons"
            )
        left_outer = isinstance(bound.left, OuterColumn)
        right_outer = isinstance(bound.right, OuterColumn)
        if left_outer == right_outer:
            raise AnalysisError(
                "correlated predicate must compare an outer column with a local expression"
            )
        outer = bound.left if left_outer else bound.right
        local = bound.right if left_outer else bound.left
        if outer.levels != 1:
            raise AnalysisError("correlation deeper than one level is not supported")
        if any(isinstance(n, OuterColumn) for n in local.walk()):
            raise AnalysisError("both sides of a correlated predicate reference the outer query")
        correlations.append((outer.index, local))

    # ------------------------------------------------------------------
    # Join-tree construction
    # ------------------------------------------------------------------
    def _build_join_tree(
        self,
        leaves: list[_Leaf],
        pushed: dict[int, list[BoundExpr]],
        edges: list[JoinEdge],
        residuals: list[BoundExpr],
    ) -> tuple[LogicalNode, list[int]]:
        plans: list[LogicalNode] = []
        estimates: list[float] = []
        for i, leaf in enumerate(leaves):
            plan = leaf.plan
            conjuncts = pushed.get(i, [])
            if conjuncts:
                local_map = {g: p for p, g in enumerate(leaf.globals())}
                predicate = conjoin([remap_expr(c, local_map) for c in conjuncts])
                plan = LogicalFilter(plan, predicate)
            plans.append(plan)
            estimates.append(estimate_rows(plan, self.catalog))

        start, steps = order_joins(estimates, edges)
        tree = plans[start]
        tree_est = estimates[start]
        layout = leaves[start].globals()
        pending = list(residuals)

        def apply_ready_residuals() -> None:
            nonlocal tree
            available = set(layout)
            ready = [r for r in pending if input_refs(r) <= available]
            if ready:
                mapping = {g: p for p, g in enumerate(layout)}
                tree = LogicalFilter(
                    tree, conjoin([remap_expr(r, mapping) for r in ready])
                )
                for r in ready:
                    pending.remove(r)

        apply_ready_residuals()
        for step in steps:
            leaf = leaves[step.leaf]
            leaf_plan = plans[step.leaf]
            leaf_est = estimates[step.leaf]
            leaf_globals = leaf.globals()
            tree_map = {g: p for p, g in enumerate(layout)}
            leaf_map = {g: p for p, g in enumerate(leaf_globals)}
            if not step.edges:
                # Cross join: build side is the smaller input.
                if leaf_est <= tree_est:
                    tree = LogicalJoin(tree, leaf_plan, JoinType.CROSS, [], [])
                    layout = layout + leaf_globals
                else:
                    tree = LogicalJoin(leaf_plan, tree, JoinType.CROSS, [], [])
                    layout = leaf_globals + layout
            else:
                tree_cols = []
                leaf_cols = []
                for edge in step.edges:
                    col_leaf, col_tree = edge.columns_for(step.leaf)
                    tree_cols.append(tree_map[col_tree])
                    leaf_cols.append(leaf_map[col_leaf])
                if leaf_est <= tree_est:
                    tree = LogicalJoin(
                        tree, leaf_plan, JoinType.INNER, tree_cols, leaf_cols
                    )
                    layout = layout + leaf_globals
                else:
                    tree = LogicalJoin(
                        leaf_plan, tree, JoinType.INNER, leaf_cols, tree_cols
                    )
                    layout = leaf_globals + layout
            tree_est = max(tree_est, leaf_est)
            apply_ready_residuals()

        if pending:
            raise PlanningError(
                f"unapplied residual predicates: {[str(p) for p in pending]}"
            )
        return tree, layout

    # ------------------------------------------------------------------
    # Subquery planning
    # ------------------------------------------------------------------
    def _plan_exists(
        self, sub: ast.SelectStatement, scope: Scope, anti: bool
    ) -> _SemiSpec:
        if sub.group_by or sub.order_by or sub.limit is not None:
            raise PlanningError("EXISTS subqueries must be plain FROM/WHERE blocks")
        tree, layout, _sub_scope, correlations = self._plan_from_where(sub, scope)
        if not correlations:
            raise PlanningError("uncorrelated EXISTS is not supported")
        mapping = {g: p for p, g in enumerate(layout)}
        exprs = [remap_expr(local, mapping) for _, local in correlations]
        names = [f"corr_{i}" for i in range(len(exprs))]
        projected = LogicalProject.of(tree, exprs, names)
        return _SemiSpec(
            inner=projected,
            outer_globals=[outer for outer, _ in correlations],
            inner_cols=list(range(len(exprs))),
            anti=anti,
        )

    def _plan_in_subquery(
        self, node: ast.InSubquery, scope: Scope, binder: ExpressionBinder
    ) -> _SemiSpec:
        value = binder.bind(node.value)
        if not isinstance(value, InputRef):
            raise PlanningError("IN (subquery) requires a plain column on the left")
        inner = self._plan_query(node.query, outer_scope=None)
        if len(inner.schema) != 1:
            raise PlanningError("IN subquery must produce exactly one column")
        return _SemiSpec(
            inner=inner,
            outer_globals=[value.index],
            inner_cols=[0],
            anti=node.negated,
        )

    def _plan_scalar(
        self, sub: ast.SelectStatement, scope: Scope, ext_offset: int
    ) -> tuple[LogicalNode, list[int], int]:
        """Plan a (possibly correlated) scalar subquery.

        Returns ``(plan, outer_ids, ext_offset)`` where the plan's schema is
        ``[corr_key..., value]`` and ``outer_ids`` are the outer global ids
        paired positionally with the correlation key columns.
        """
        if len(sub.items) != 1 or sub.items[0].is_star:
            raise PlanningError("scalar subquery must select exactly one expression")
        if sub.group_by or sub.order_by or sub.limit is not None or sub.having:
            raise PlanningError("scalar subqueries must be single-aggregate blocks")
        item_expr = sub.items[0].expr

        tree, layout, sub_scope, correlations = self._plan_from_where(sub, scope)
        mapping = {g: p for p, g in enumerate(layout)}
        corr_exprs = [remap_expr(local, mapping) for _, local in correlations]

        # Bind the select expression; it may be an expression over a single
        # aggregate, e.g. ``0.2 * avg(l_quantity)`` (TPC-H Q17).
        aggs: list[AggregateCall] = []
        agg_binder = ExpressionBinder(
            sub_scope, aggregates=aggs, agg_offset=len(corr_exprs),
            post_aggregation=True,
        )
        value_expr = agg_binder.bind(item_expr)
        if len(aggs) != 1:
            raise PlanningError("scalar subquery must contain exactly one aggregate")
        agg = aggs[0]

        pre_exprs = list(corr_exprs)
        pre_names = [f"corr_{i}" for i in range(len(corr_exprs))]
        if agg.arg is not None:
            pre_exprs.append(remap_expr(agg.arg, mapping))
            pre_names.append("agg_arg")
            agg = AggregateCall(
                agg.function,
                InputRef(len(corr_exprs), agg.arg.type, "agg_arg", agg.arg.nullable),
                agg.result_type,
            )
        pre_project = LogicalProject.of(tree, pre_exprs, pre_names)
        agg_plan: LogicalNode = LogicalAggregate.of(
            pre_project,
            group_keys=list(range(len(corr_exprs))),
            aggregates=[agg],
            names=[f"corr_{i}" for i in range(len(corr_exprs))] + ["scalar_value"],
        )
        # Apply the post-aggregation expression (identity when the select
        # item is the bare aggregate).  ``value_expr`` references the
        # aggregation output schema by construction of the binder.
        post_exprs = [
            InputRef(i, agg_plan.schema.fields[i].type, f"corr_{i}", agg_plan.schema.fields[i].nullable)
            for i in range(len(corr_exprs))
        ] + [value_expr]
        agg_plan = LogicalProject.of(
            agg_plan,
            post_exprs,
            [f"corr_{i}" for i in range(len(corr_exprs))] + ["scalar_value"],
        )
        return agg_plan, [outer for outer, _ in correlations], ext_offset

    # ------------------------------------------------------------------
    # Full SELECT planning
    # ------------------------------------------------------------------
    def _plan_query(
        self, stmt: ast.SelectStatement, outer_scope: Scope | None
    ) -> LogicalNode:
        stmt = _rewrite_distinct_aggregate(stmt)
        tree, layout, scope, correlations = self._plan_from_where(stmt, outer_scope)
        if correlations:
            raise AnalysisError("correlated column used outside a subquery predicate")
        mapping = {g: p for p, g in enumerate(layout)}

        items = self._expand_items(stmt.items, scope)
        has_aggregates = bool(stmt.group_by) or any(
            _contains_aggregate(item.expr) for item in items
        ) or (stmt.having is not None and _contains_aggregate(stmt.having))

        if has_aggregates:
            plan = self._plan_aggregation(stmt, items, tree, mapping, scope)
        else:
            if stmt.having is not None:
                raise AnalysisError("HAVING requires aggregation")
            binder = ExpressionBinder(scope)
            exprs = [remap_expr(binder.bind(item.expr), mapping) for item in items]
            names = [_output_name(item, i) for i, item in enumerate(items)]
            plan = LogicalProject.of(tree, exprs, names)

        if stmt.distinct:
            plan = LogicalAggregate.of(
                plan, list(range(len(plan.schema))), [], names=plan.schema.names()
            )

        return self._plan_ordering(stmt, plan)

    def _expand_items(
        self, items: list[ast.SelectItem], scope: Scope
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not item.is_star:
                expanded.append(item)
                continue
            for binding, schema in scope.relations:
                for field in schema:
                    expanded.append(
                        ast.SelectItem(ast.ColumnName(field.name, binding), field.name)
                    )
        return expanded

    def _plan_aggregation(
        self,
        stmt: ast.SelectStatement,
        items: list[ast.SelectItem],
        tree: LogicalNode,
        mapping: dict[int, int],
        scope: Scope,
    ) -> LogicalNode:
        plain_binder = ExpressionBinder(scope)
        group_bound = [plain_binder.bind(g) for g in stmt.group_by]
        group_map = {g: i for i, g in enumerate(stmt.group_by)}

        aggs: list[AggregateCall] = []
        post_binder = ExpressionBinder(
            scope,
            aggregates=aggs,
            agg_offset=len(group_bound),
            group_expr_map=group_map,
            post_aggregation=True,
        )
        post_exprs = [post_binder.bind(item.expr) for item in items]
        # HAVING conjuncts comparing an aggregate against an uncorrelated
        # scalar subquery (TPC-H Q11) are split out: the subquery becomes
        # an independent 1-row plan cross-joined above the aggregate, the
        # comparison a filter over that join.  Plain conjuncts stay a
        # filter directly above the aggregate.
        plain_having: list[BoundExpr] = []
        scalar_having: list[tuple[str, BoundExpr, LogicalNode]] = []
        if stmt.having is not None:
            for conjunct in split_conjuncts(stmt.having):
                scalar = _scalar_side(conjunct)
                if scalar is not None:
                    op, value_ast, sub_stmt = scalar
                    sub_plan = self._plan_query(sub_stmt, None)
                    if len(sub_plan.schema) != 1:
                        raise PlanningError(
                            "scalar subquery in HAVING must produce one column"
                        )
                    scalar_having.append(
                        (op, post_binder.bind(value_ast), sub_plan)
                    )
                else:
                    plain_having.append(post_binder.bind_predicate(conjunct))
        having_expr = conjoin(plain_having)

        # Pre-projection: group keys first, then (deduplicated) agg args.
        pre_exprs: list[BoundExpr] = [remap_expr(g, mapping) for g in group_bound]
        pre_names = [f"group_{i}" for i in range(len(group_bound))]
        final_aggs: list[AggregateCall] = []
        arg_positions: dict[BoundExpr, int] = {}
        for agg in aggs:
            if agg.arg is None:
                final_aggs.append(agg)
                continue
            remapped = remap_expr(agg.arg, mapping)
            if remapped not in arg_positions:
                arg_positions[remapped] = len(pre_exprs)
                pre_exprs.append(remapped)
                pre_names.append(f"arg_{len(pre_exprs) - 1}")
            final_aggs.append(
                AggregateCall(
                    agg.function,
                    InputRef(arg_positions[remapped], agg.arg.type, "agg_arg", agg.arg.nullable),
                    agg.result_type,
                )
            )

        if not pre_exprs:
            # count(*) with no group keys: keep a carrier column so pages
            # retain their row counts.
            from ..sql.expressions import Constant
            from ..pages import ColumnType

            pre_exprs = [Constant(1, ColumnType.INT64)]
            pre_names = ["one"]
        pre_project = LogicalProject.of(tree, pre_exprs, pre_names)
        agg_names = [_group_name(g, i) for i, g in enumerate(stmt.group_by)] + [
            f"agg_{i}" for i in range(len(final_aggs))
        ]
        plan: LogicalNode = LogicalAggregate.of(
            pre_project,
            group_keys=list(range(len(group_bound))),
            aggregates=final_aggs,
            names=agg_names,
        )
        if having_expr is not None:
            plan = LogicalFilter(plan, having_expr)
        for op, value_bound, sub_plan in scalar_having:
            # Cross join the 1-row scalar result; the comparison filter
            # references it at the end of the joined schema.  The final
            # projection below only reads aggregate-output positions, so
            # the extra column is dropped there.
            scalar_col = len(plan.schema)
            scalar = sub_plan.schema.fields[0]
            plan = LogicalJoin(plan, sub_plan, JoinType.CROSS, [], [])
            plan = LogicalFilter(
                plan,
                Comparison(
                    op,
                    value_bound,
                    InputRef(scalar_col, scalar.type, "scalar", scalar.nullable),
                ),
            )
        names = [_output_name(item, i) for i, item in enumerate(items)]
        return LogicalProject.of(plan, post_exprs, names)

    def _plan_ordering(
        self, stmt: ast.SelectStatement, plan: LogicalNode
    ) -> LogicalNode:
        if stmt.order_by:
            output_scope = Scope([(None, plan.schema)])
            binder = ExpressionBinder(output_scope)
            keys: list[tuple[int, bool]] = []
            for order in stmt.order_by:
                bound = binder.bind(order.expr)
                if not isinstance(bound, InputRef):
                    raise PlanningError(
                        "ORDER BY must reference output columns by name or alias"
                    )
                keys.append((bound.index, order.ascending))
            if stmt.limit is not None:
                return LogicalTopN(plan, stmt.limit, keys)
            return LogicalSort(plan, keys)
        if stmt.limit is not None:
            return LogicalLimit(plan, stmt.limit)
        return plan


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _aggregate_calls(node: ast.ExprNode) -> list[ast.FunctionCall]:
    """Aggregate calls in ``node`` (a subquery's are its own, not these)."""
    return [
        n for n in node.walk()
        if isinstance(n, ast.FunctionCall) and n.name in AGGREGATE_FUNCTIONS
    ]


def _contains_aggregate(node: ast.ExprNode) -> bool:
    return bool(_aggregate_calls(node))


def _output_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnName):
        return item.expr.name
    return f"_col{index}"


def _group_name(expr: ast.ExprNode, index: int) -> str:
    if isinstance(expr, ast.ColumnName):
        return expr.name
    return f"group_{index}"


def _rewrite_distinct_aggregate(stmt: ast.SelectStatement) -> ast.SelectStatement:
    """Rewrite ``count(distinct x)`` into a two-level aggregation.

    ``SELECT g, count(distinct x) FROM ... GROUP BY g`` becomes::

        SELECT g, count(_dx) FROM (
            SELECT DISTINCT g, x AS _dx FROM ...
        ) AS _distinct GROUP BY g

    Supported when the distinct aggregate is the only aggregate in the
    select list (TPC-H Q16 shape); mixing it with other aggregates would
    need per-aggregate pipelines and is reported as unsupported.
    """
    calls = [c for item in stmt.items for c in _aggregate_calls(item.expr)]
    distinct_calls = {c for c in calls if c.distinct}
    if not distinct_calls:
        return stmt
    plain_calls = {c for c in calls if not c.distinct}
    if len(distinct_calls) > 1 or plain_calls:
        raise PlanningError(
            "DISTINCT aggregates are only supported as the sole aggregate"
        )
    call = next(iter(distinct_calls))
    if call.name != "count" or call.is_star or len(call.args) != 1:
        raise PlanningError("only count(DISTINCT <column expression>) is supported")
    if stmt.having is not None:
        raise PlanningError("HAVING with count(DISTINCT ...) is not supported")

    # Inner query: SELECT DISTINCT <group exprs...>, <arg> FROM/WHERE.
    inner_items: list[ast.SelectItem] = []
    outer_groups: list[ast.ExprNode] = []
    for i, group in enumerate(stmt.group_by):
        alias = group.name if isinstance(group, ast.ColumnName) else f"_g{i}"
        inner_items.append(ast.SelectItem(group, alias))
        outer_groups.append(ast.ColumnName(alias))
    inner_items.append(ast.SelectItem(call.args[0], "_dx"))
    inner = ast.SelectStatement(
        items=inner_items,
        relations=stmt.relations,
        where=stmt.where,
        distinct=True,
    )

    # Outer query mirrors the original, with the distinct call replaced by
    # a plain count over the deduplicated rows.
    alias_by_group = {g: o for g, o in zip(stmt.group_by, outer_groups)}

    def remap(node: ast.ExprNode) -> ast.ExprNode:
        if node in alias_by_group:
            return alias_by_group[node]
        if node == call:
            return ast.FunctionCall("count", (ast.ColumnName("_dx"),))
        return node.rebuild(remap)

    outer_items = [
        ast.SelectItem(remap(item.expr), item.alias, item.is_star)
        for item in stmt.items
    ]
    outer_order = [
        ast.OrderItem(remap(o.expr), o.ascending) for o in stmt.order_by
    ]
    return ast.SelectStatement(
        items=outer_items,
        relations=[ast.SubqueryRef(inner, "_distinct")],
        group_by=outer_groups,
        order_by=outer_order,
        limit=stmt.limit,
    )


def _scalar_side(
    conjunct: ast.ExprNode,
) -> tuple[str, ast.ExprNode, ast.SelectStatement] | None:
    """Detect ``expr op (SELECT ...)`` conjuncts; normalise subquery right."""
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    if conjunct.op not in ("=", "<>", "<", "<=", ">", ">="):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
    if isinstance(conjunct.right, ast.ScalarSubquery):
        return conjunct.op, conjunct.left, conjunct.right.query
    if isinstance(conjunct.left, ast.ScalarSubquery):
        return flip[conjunct.op], conjunct.right, conjunct.left.query
    return None


def _extract_common_factors(conjuncts: list[ast.ExprNode]) -> list[ast.ExprNode]:
    """Pull conjuncts common to every OR branch up to the top level.

    Q19's predicate is ``(p=l AND ...) OR (p=l AND ...) OR (p=l AND ...)``;
    extracting the shared ``p_partkey = l_partkey`` exposes the join edge
    and avoids planning a cross product.
    """
    out: list[ast.ExprNode] = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "or"):
            out.append(conjunct)
            continue
        branches = _split_disjuncts(conjunct)
        branch_sets = [split_conjuncts(b) for b in branches]
        common = [c for c in branch_sets[0] if all(c in bs for bs in branch_sets[1:])]
        if not common:
            out.append(conjunct)
            continue
        out.extend(common)
        rest_branches = []
        for bs in branch_sets:
            rest = [c for c in bs if c not in common]
            rest_branches.append(_and_join(rest) if rest else ast.BooleanLiteral(True))
        out.append(_or_join(rest_branches))
    return out


def _split_disjuncts(node: ast.ExprNode) -> list[ast.ExprNode]:
    if isinstance(node, ast.BinaryOp) and node.op == "or":
        return _split_disjuncts(node.left) + _split_disjuncts(node.right)
    return [node]


def _and_join(nodes: list[ast.ExprNode]) -> ast.ExprNode:
    expr = nodes[0]
    for n in nodes[1:]:
        expr = ast.BinaryOp("and", expr, n)
    return expr


def _or_join(nodes: list[ast.ExprNode]) -> ast.ExprNode:
    expr = nodes[0]
    for n in nodes[1:]:
        expr = ast.BinaryOp("or", expr, n)
    return expr
