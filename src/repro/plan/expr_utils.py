"""Generic transformations over bound expression trees.

Bound expressions are frozen dataclasses, so rewrites rebuild nodes
bottom-up.  These helpers are shared by the logical planner (column
remapping after join reordering) and the optimizer rules (projection
pruning).
"""

from __future__ import annotations

from typing import Callable

from ..errors import PlanningError
from ..sql.expressions import BoundExpr, InputRef


def transform_expr(expr: BoundExpr, fn: Callable[[BoundExpr], BoundExpr]) -> BoundExpr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children have already been transformed and
    returns a (possibly new) node.
    """
    return fn(expr.rebuild(lambda child: transform_expr(child, fn)))


def remap_expr(expr: BoundExpr, mapping: dict[int, int]) -> BoundExpr:
    """Replace every ``InputRef`` index through ``mapping``.

    Raises :class:`PlanningError` if the expression references a column the
    mapping does not cover — that always indicates a planner bug.
    """

    def rewrite(node: BoundExpr) -> BoundExpr:
        if isinstance(node, InputRef):
            if node.index not in mapping:
                raise PlanningError(
                    f"expression references unmapped column ${node.index} ({node.name})"
                )
            return InputRef(mapping[node.index], node.type, node.name, node.nullable)
        return node

    return transform_expr(expr, rewrite)


def input_refs(expr: BoundExpr) -> set[int]:
    """All input column positions referenced by ``expr``."""
    return {node.index for node in expr.walk() if isinstance(node, InputRef)}
