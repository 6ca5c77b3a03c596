"""Naive single-node reference executor (correctness oracle).

Evaluates a logical plan directly over whole in-memory tables, with
straightforward dict-based joins and aggregations.  The distributed engine
must produce exactly the same rows under *any* DOP tuning schedule — the
test suite's central invariant (elasticity never changes answers).

NULL follows SQLite, with its own code over python values (``None``):
aggregates skip it and answer NULL over no value (``count``: 0), a NULL
join key matches nothing, groups and sorts put NULL first (last when
descending); expressions are the interpreter's own
(``BoundExpr.evaluate``).
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .data import Catalog
from .errors import ExecutionError
from .pages import Page, Schema
from .plan.logical import (
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
from .sql.expressions import AggregateCall


def execute_reference(plan: LogicalNode, catalog: Catalog) -> Page:
    """Evaluate ``plan`` against ``catalog`` and return one result page."""
    return _Reference(catalog).run(plan)


class _Reference:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def run(self, node: LogicalNode) -> Page:
        method = getattr(self, f"_run_{type(node).__name__}", None)
        if method is None:
            raise ExecutionError(f"reference executor: no rule for {type(node).__name__}")
        return method(node)

    # -- leaves -----------------------------------------------------------
    def _run_LogicalScan(self, node: LogicalScan) -> Page:
        table = self.catalog.table(node.table)
        columns = [table.columns[i] for i in node.column_indexes]
        return Page(node.schema, columns)

    # -- row transforms -----------------------------------------------------
    def _run_LogicalFilter(self, node: LogicalFilter) -> Page:
        child = self.run(node.child)
        mask = node.predicate.evaluate(child).astype(bool, copy=False)
        return child.mask(mask)

    def _run_LogicalProject(self, node: LogicalProject) -> Page:
        child = self.run(node.child)
        return Page(node.schema, [e.evaluate(child) for e in node.exprs])

    # -- joins -----------------------------------------------------------
    def _run_LogicalJoin(self, node: LogicalJoin) -> Page:
        left = self.run(node.left)
        right = self.run(node.right)
        if node.join_type is JoinType.CROSS:
            return self._cross(node, left, right)

        build_keys = _key_rows(right, node.right_keys)
        table: dict[tuple, list[int]] = {}
        for i, key in enumerate(build_keys):
            if None not in key:  # a NULL key matches nothing
                table.setdefault(key, []).append(i)

        probe_keys = _key_rows(left, node.left_keys)
        if node.join_type in (JoinType.SEMI, JoinType.ANTI):
            want = node.join_type is JoinType.SEMI
            mask = np.fromiter(
                ((key in table) == want for key in probe_keys),
                dtype=bool,
                count=len(probe_keys),
            )
            return left.mask(mask)

        left_idx: list[int] = []
        right_idx: list[int] = []
        for i, key in enumerate(probe_keys):
            for j in table.get(key, ()):
                left_idx.append(i)
                right_idx.append(j)
        combined = _concat_rows(node.schema, left, right, left_idx, right_idx)
        if node.residual is not None:
            mask = node.residual.evaluate(combined).astype(bool, copy=False)
            combined = combined.mask(mask)
        return combined

    def _cross(self, node: LogicalJoin, left: Page, right: Page) -> Page:
        nl, nr = left.num_rows, right.num_rows
        left_idx = np.repeat(np.arange(nl), nr)
        right_idx = np.tile(np.arange(nr), nl)
        combined = _concat_rows(node.schema, left, right, left_idx, right_idx)
        if node.residual is not None:
            mask = node.residual.evaluate(combined).astype(bool, copy=False)
            combined = combined.mask(mask)
        return combined

    # -- aggregation -----------------------------------------------------
    def _run_LogicalAggregate(self, node: LogicalAggregate) -> Page:
        """Grouped with its own code, not the engine's kernels: a dict
        from key tuple to the group's rows, groups in ascending key
        order; a global aggregate is one group, even of no rows."""
        child = self.run(node.child)
        groups: dict[tuple, list[int]] = {} if node.group_keys else {(): []}
        for row, key in enumerate(_key_rows(child, node.group_keys)):
            groups.setdefault(key, []).append(row)
        keys = sorted(groups, key=lambda key: tuple(map(_null_first, key)))
        members = [groups[key] for key in keys]
        columns = [_grouped_aggregate(agg, child, members) for agg in node.aggregates]
        return Page.from_rows(
            node.schema, [key + tuple(values) for key, *values in zip(keys, *columns)]
        )

    # -- ordering -----------------------------------------------------------
    def _run_LogicalSort(self, node: LogicalSort) -> Page:
        child = self.run(node.child)
        return child.take(_sorted_rows(child, node.sort_keys))

    def _run_LogicalTopN(self, node: LogicalTopN) -> Page:
        child = self.run(node.child)
        order = _sorted_rows(child, node.sort_keys)[: node.count]
        return child.take(order)

    def _run_LogicalLimit(self, node: LogicalLimit) -> Page:
        child = self.run(node.child)
        return child.slice(0, node.count)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _key_rows(page: Page, keys: list[int]) -> list[tuple]:
    cols = [page.columns[k].tolist() for k in keys]
    return list(zip(*cols)) if cols else [() for _ in range(page.num_rows)]


def _concat_rows(schema: Schema, left: Page, right: Page, left_idx, right_idx) -> Page:
    left_idx = np.asarray(left_idx, dtype=np.int64)
    right_idx = np.asarray(right_idx, dtype=np.int64)
    columns = [c[left_idx] for c in left.columns]
    columns += [c[right_idx] for c in right.columns]
    return Page(schema, columns)


def _null_first(value) -> tuple:
    """Sort key ordering NULL below every value."""
    return value is not None, value


def _grouped_aggregate(agg: AggregateCall, page: Page, members: list[list[int]]) -> list:
    """One value per group (``members``: each group's rows, in row
    order), over python values with NULLs skipped: INT64 sums are exact
    ints, float sums add in row order from zero, as one sequential
    ``bincount`` does; a group left with no value is NULL (``count``: 0)."""
    if agg.arg is None:
        return [len(rows) for rows in members]
    values = agg.arg.evaluate(page).tolist()
    picked = [[values[row] for row in rows if values[row] is not None] for rows in members]
    if agg.function == "count":
        return list(map(len, picked))
    if agg.function in ("min", "max"):
        fold = min if agg.function == "min" else max
    elif agg.function == "sum":
        fold = lambda group: reduce(operator.add, group, 0)  # noqa: E731
    elif agg.function == "avg":
        fold = lambda group: float(reduce(operator.add, group, 0)) / len(group)  # noqa: E731
    else:
        raise ExecutionError(f"unknown aggregate {agg.function}")
    return [fold(group) if group else None for group in picked]


def _sorted_rows(page: Page, sort_keys: list[tuple[int, bool]]) -> np.ndarray:
    """Row order by python ``sorted``: one stable pass per key, least
    significant first, ``reverse=True`` for DESC (still stable)."""
    order = list(range(page.num_rows))
    for index, ascending in reversed(sort_keys):
        keys = list(map(_null_first, page.columns[index].tolist()))
        order = sorted(order, key=keys.__getitem__, reverse=not ascending)
    return np.array(order, dtype=np.int64)
