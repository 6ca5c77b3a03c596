"""Residual operators: the per-consumer tail applied to a shared stream.

When query B is folded onto carrier A, A's physical execution produces
A's result page once; each folded consumer then applies its
:class:`Residual` — extra filter conjuncts, a re-projection into B's
output schema, and optionally a grouped re-aggregation plus final
projection — to derive B's answer from the shared page.

Determinism contract: every step must produce *bit-identical* values to
an isolated run of B.  Filters and projections evaluate the same bound
expressions over the same values, so they are exact by construction.
The grouped aggregation emits groups in sorted-key order — the order the
engine's hash aggregation produces when group codes are assigned by
``np.unique`` over the keys (its factorizers sort within each learning
batch) — and is restricted by the fold detector to order-insensitive
aggregates (``count``/``min``/``max`` over anything; ``sum``/``avg``
over INT64, where ``avg`` divides the exact integer sum by the exact
count in float64 — the same final-aggregation arithmetic the engine
uses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..pages import Page, Schema
from ..sql.compiler import compile_expression, compile_expressions
from ..sql.expressions import AggregateCall, BoundExpr
from ..sql.functions import (
    group_codes,
    grouped_count,
    grouped_max,
    grouped_min,
    grouped_sum,
)


@dataclass
class Residual:
    """What a folded consumer still has to do on the carrier's output.

    ``project`` is ``(exprs, schema)`` over the carrier's output;
    ``aggregate`` is ``(group_keys, aggregates, schema)`` over the
    projection's output; ``post_project`` is ``(exprs, schema)`` over the
    aggregation's output.  ``None`` members are skipped.  An all-``None``
    residual is the identity (exact-fingerprint fold)."""

    predicate: BoundExpr | None = None
    project: tuple[list[BoundExpr], Schema] | None = None
    aggregate: tuple[list[int], list[AggregateCall], Schema] | None = None
    post_project: tuple[list[BoundExpr], Schema] | None = None

    def describe(self) -> str:
        parts = []
        if self.predicate is not None:
            parts.append(f"filter[{self.predicate}]")
        if self.project is not None:
            parts.append(f"project[{len(self.project[0])} cols]")
        if self.aggregate is not None:
            keys, aggs, _schema = self.aggregate
            parts.append(f"agg[{len(keys)} keys, {len(aggs)} aggs]")
        return " -> ".join(parts) if parts else "identity"


def apply_residual(page: Page, residual: Residual) -> Page:
    """Derive a folded consumer's result page from the carrier's page."""
    if residual.predicate is not None:
        keep = compile_expression(residual.predicate)(page).astype(bool, copy=False)
        page = page.mask(keep)
    if residual.project is not None:
        exprs, schema = residual.project
        page = Page(schema, compile_expressions(exprs)(page))
    if residual.aggregate is not None:
        group_keys, aggregates, schema = residual.aggregate
        page = _aggregate_page(page, group_keys, aggregates, schema)
    if residual.post_project is not None:
        exprs, schema = residual.post_project
        page = Page(schema, compile_expressions(exprs)(page))
    return page


# -- grouped aggregation over one page ---------------------------------------
def _aggregate_page(
    page: Page,
    group_keys: list[int],
    aggregates: list[AggregateCall],
    schema: Schema,
) -> Page:
    if not group_keys:
        raise ExecutionError(
            "residual aggregation requires group keys (global aggregates "
            "fold only on exact fingerprint match)"
        )
    # group_codes numbers groups in sorted-key order (see module docstring).
    codes, uniques = group_codes([page.columns[k] for k in group_keys])
    ngroups = len(uniques[0])
    columns = list(uniques)
    for call in aggregates:
        if call.function == "count":
            # No NULLs in the engine's data model: count(x) == count(*).
            columns.append(grouped_count(codes, ngroups))
            continue
        arg = compile_expression(call.arg)(page)
        if call.function in ("sum", "avg"):
            sums = grouped_sum(codes, arg.astype(np.int64, copy=False), ngroups)
            if call.function == "avg":
                # Exact integer sum / exact count in float64: the same
                # division the engine's final aggregation performs.
                sums = sums.astype(np.float64) / grouped_count(codes, ngroups)
            columns.append(sums)
        elif call.function == "min":
            columns.append(grouped_min(codes, arg, ngroups))
        elif call.function == "max":
            columns.append(grouped_max(codes, arg, ngroups))
        else:
            raise ExecutionError(f"unsupported residual aggregate {call.function}")
    return Page(
        schema, [f.type.coerce(col) for f, col in zip(schema.fields, columns)]
    )
