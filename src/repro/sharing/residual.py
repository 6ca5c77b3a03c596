"""Residual operators: the per-consumer tail applied to a shared stream.

When query B is folded onto carrier A, A's physical execution produces
A's result page once; each folded consumer then applies its
:class:`Residual` — extra filter conjuncts and a re-projection into B's
output schema — to derive B's answer from the shared page.

Determinism contract: every step must produce *bit-identical* values to
an isolated run of B.  Filters and projections evaluate the same bound
expressions over the same values, so they are exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pages import Page, Schema
from ..sql.compiler import compile_expression, compile_expressions
from ..sql.expressions import BoundExpr


@dataclass
class Residual:
    """What a folded consumer still has to do on the carrier's output.

    ``project`` is ``(exprs, schema)`` over the carrier's output.
    ``None`` members are skipped.  An all-``None`` residual is the
    identity (exact-fingerprint fold)."""

    predicate: BoundExpr | None = None
    project: tuple[list[BoundExpr], Schema] | None = None

    def describe(self) -> str:
        parts = []
        if self.predicate is not None:
            parts.append(f"filter[{self.predicate}]")
        if self.project is not None:
            parts.append(f"project[{len(self.project[0])} cols]")
        return " -> ".join(parts) if parts else "identity"


def apply_residual(page: Page, residual: Residual) -> Page:
    """Derive a folded consumer's result page from the carrier's page."""
    if residual.predicate is not None:
        keep = compile_expression(residual.predicate)(page).astype(bool, copy=False)
        page = page.mask(keep)
    if residual.project is not None:
        exprs, schema = residual.project
        page = Page(schema, compile_expressions(exprs)(page))
    return page
