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
from ..pages import ColumnType, DictColumn, Page, Schema
from ..sql.expressions import AggregateCall, BoundExpr
from ..sql.functions import grouped_max, grouped_min


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

    @property
    def identity(self) -> bool:
        return (
            self.predicate is None
            and self.project is None
            and self.aggregate is None
        )

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
        keep = residual.predicate.evaluate(page).astype(bool, copy=False)
        page = page.mask(keep)
    if residual.project is not None:
        exprs, schema = residual.project
        page = Page(schema, [e.evaluate(page) for e in exprs])
    if residual.aggregate is not None:
        group_keys, aggregates, schema = residual.aggregate
        page = _aggregate_page(page, group_keys, aggregates, schema)
    if residual.post_project is not None:
        exprs, schema = residual.post_project
        page = Page(schema, [e.evaluate(page) for e in exprs])
    return page


# -- grouped aggregation over one page ---------------------------------------
def _group_ids(page: Page, group_keys: list[int]) -> tuple[np.ndarray, list]:
    """Sorted-key-order group ids (the engine's factorizer order)."""
    n = page.num_rows
    key_columns = [page.columns[k].tolist() for k in group_keys]
    seen: dict = {}
    raw = np.empty(n, dtype=np.int64)
    for i, key_row in enumerate(zip(*key_columns)):
        g = seen.get(key_row)
        if g is None:
            g = seen[key_row] = len(seen)
        raw[i] = g
    order = sorted(seen)
    remap = np.empty(len(seen), dtype=np.int64)
    for rank, key_row in enumerate(order):
        remap[seen[key_row]] = rank
    gid = remap[raw] if n else raw
    return gid, order


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
    gid, order = _group_ids(page, group_keys)
    ngroups = len(order)
    counts = (
        np.bincount(gid, minlength=ngroups).astype(np.int64)
        if page.num_rows
        else np.zeros(ngroups, dtype=np.int64)
    )
    columns: list[np.ndarray] = []
    for pos in range(len(group_keys)):
        field = schema.fields[pos]
        columns.append(field.type.coerce([key_row[pos] for key_row in order]))
    for j, call in enumerate(aggregates):
        field = schema.fields[len(group_keys) + j]
        columns.append(
            _evaluate_agg(call, page, gid, ngroups, counts, field.type)
        )
    return Page(schema, columns)


def _evaluate_agg(
    call: AggregateCall,
    page: Page,
    gid: np.ndarray,
    ngroups: int,
    counts: np.ndarray,
    out_type: ColumnType,
) -> np.ndarray:
    if call.function == "count":
        # No NULLs in the engine's data model: count(x) == count(*).
        return counts.astype(out_type.numpy_dtype, copy=False)
    arg = call.arg.evaluate(page)
    if call.function == "sum":
        out = np.zeros(ngroups, dtype=np.int64)
        np.add.at(out, gid, arg.astype(np.int64, copy=False))
        return out.astype(out_type.numpy_dtype, copy=False)
    if call.function == "avg":
        sums = np.zeros(ngroups, dtype=np.int64)
        np.add.at(sums, gid, arg.astype(np.int64, copy=False))
        # Exact integer sum / exact count in float64: the same division
        # the engine's final aggregation performs.
        return sums.astype(np.float64) / counts
    if call.function in ("min", "max"):
        return _min_max(call.function, arg, gid, ngroups, out_type)
    raise ExecutionError(f"unsupported residual aggregate {call.function}")


def _min_max(
    function: str,
    arg: np.ndarray,
    gid: np.ndarray,
    ngroups: int,
    out_type: ColumnType,
) -> np.ndarray:
    if isinstance(arg, DictColumn):
        reduce = grouped_min if function == "min" else grouped_max
        return reduce(gid, arg, ngroups)
    # Seed each group with its first value, then reduce in place; groups
    # are non-empty by construction (ids come from the rows themselves).
    first_index = np.full(ngroups, len(gid), dtype=np.int64)
    np.minimum.at(first_index, gid, np.arange(len(gid), dtype=np.int64))
    out = arg[first_index].copy()
    if function == "min":
        np.minimum.at(out, gid, arg)
    else:
        np.maximum.at(out, gid, arg)
    return out.astype(out_type.numpy_dtype, copy=False)
