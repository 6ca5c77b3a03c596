"""Plan normalization and subplan subsumption for concurrent-query folding.

The fold detector (DESIGN.md §14) never compares SQL text: it compares
the :func:`~repro.tree.identity` of logical plans (``PreparedQuery.key``)
— conjuncts/disjuncts sorted, ``=``/``<>`` operands ordered, ``>``/``>=``
rewritten as flipped ``<``/``<=``, consecutive ``Filter`` nodes merged —
so two textually different but semantically identical plans produce the
same key across runs and processes (no ``id()``/hash-seed leakage).
Only comparisons and boolean connectives are reordered, which are
result-exact under any order; arithmetic is not.  Output column *names*
are part of the key: result schemas are user-visible.

On top of the keys, :func:`decompose` splits a detail plan into the
shared *core* (everything below the filter/projection crown) plus its
crown, and :func:`plan_residual` decides whether query B can be grafted
onto carrier A: B folds when its core matches A's and A's filter
conjuncts are a subset of B's, in which case the returned
:class:`~repro.sharing.residual.Residual` holds B's extra conjuncts and
final projection *rebased onto A's output columns*.

Plans containing ``Limit``/``TopN`` are never shared (ties and prefixes
are tuple-order sensitive).  A plan whose root aggregates (or projects
an aggregation) has no detail crown: it folds only on an exact key, and
nothing folds onto it by subsumption.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from ..pages import Field, Schema
from ..plan.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalTopN,
)
from ..sql.expressions import BoundExpr, InputRef, conjoin, split_conjuncts
from ..tree import identity
from .residual import Residual


# -- shape decomposition -----------------------------------------------------
@dataclass
class DetailShape:
    """Decomposition of a detail (non-aggregating) crown:
    ``[Project] [Filter]* core``.  All expressions are core-relative."""

    core: LogicalNode
    conjuncts: list[BoundExpr]
    out_exprs: list[BoundExpr]
    out_names: list[str]

    # The keys subsumption matches on; derived when a fold onto another
    # group's carrier is first considered, which most queries never are.
    @cached_property
    def core_key(self) -> tuple:
        return identity(self.core)

    @cached_property
    def out_keys(self) -> list[tuple]:
        """:func:`identity` of each output expression — the carrier's
        output "namespace" that residual expressions are rebased into."""
        return [identity(e) for e in self.out_exprs]


@dataclass
class NormalizedQuery:
    """One query's foldable decomposition (its key is
    ``PreparedQuery.key``)."""

    #: Whether this plan may participate in sharing at all.
    shareable: bool
    #: The detail crown; None for unshareable and aggregating plans
    #: (exact folds still work).
    detail: DetailShape | None
    scan_tables: tuple[str, ...]


def decompose(node: LogicalNode) -> DetailShape | None:
    """Split the crown of a detail plan; None when the root is an
    aggregation or a projection of one."""
    if isinstance(node, LogicalAggregate) or (
        isinstance(node, LogicalProject)
        and isinstance(node.child, LogicalAggregate)
    ):
        return None
    out_exprs: list[BoundExpr] | None = None
    out_names: list[str] | None = None
    if isinstance(node, LogicalProject):
        out_exprs = list(node.exprs)
        out_names = list(node.schema.names())
        node = node.child
    conjuncts: list[BoundExpr] = []
    while isinstance(node, LogicalFilter):
        conjuncts.extend(split_conjuncts(node.predicate))
        node = node.child
    core = node
    if out_exprs is None:
        out_exprs = [
            InputRef(i, f.type, f.name, f.nullable) for i, f in enumerate(core.schema.fields)
        ]
        out_names = core.schema.names()
    return DetailShape(
        core=core, conjuncts=conjuncts, out_exprs=out_exprs, out_names=out_names
    )


def normalize_logical(root: LogicalNode) -> NormalizedQuery:
    nodes = list(root.walk())
    shareable = not any(isinstance(n, (LogicalTopN, LogicalLimit)) for n in nodes)
    return NormalizedQuery(
        shareable=shareable,
        detail=decompose(root) if shareable else None,
        scan_tables=tuple(n.table for n in nodes if isinstance(n, LogicalScan)),
    )


# -- rebasing core-relative expressions onto a carrier's output --------------
class _Unmappable(Exception):
    pass


def rebase(expr: BoundExpr, shape: DetailShape) -> BoundExpr | None:
    """Rewrite a core-relative expression to read the carrier's output.

    Matches whole subtrees against the carrier's output expressions by
    canonical key (so ``l_quantity * 2`` maps onto a carrier column that
    computes exactly that), recursing into children otherwise.  Returns
    ``None`` when some leaf column is not derivable from the output."""
    try:
        return _rebase(expr, shape)
    except _Unmappable:
        return None


def _rebase(expr: BoundExpr, shape: DetailShape) -> BoundExpr:
    key = identity(expr)
    for i, out_key in enumerate(shape.out_keys):
        if out_key == key:
            name = expr.name if isinstance(expr, InputRef) else shape.out_names[i]
            return InputRef(i, expr.type, name, expr.nullable)
    if isinstance(expr, InputRef):
        raise _Unmappable(key)
    return expr.rebuild(lambda child: _rebase(child, shape))


# -- subsumption -------------------------------------------------------------
def _residual_conjuncts(
    b_conjuncts: list[BoundExpr], a_conjuncts: list[BoundExpr]
) -> list[BoundExpr] | None:
    """B's conjuncts minus A's (multiset, by canonical key).

    Returns ``None`` if A filters on something B does not — A's stream
    would be missing rows B needs."""
    remaining = Counter(identity(c) for c in a_conjuncts)
    residual: list[BoundExpr] = []
    for conjunct in b_conjuncts:
        key = identity(conjunct)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            residual.append(conjunct)
    if any(v > 0 for v in remaining.values()):
        return None
    return residual


def plan_residual(
    b: NormalizedQuery, a: NormalizedQuery
) -> Residual | None:
    """Can B be computed from carrier A's output stream?  If so, return
    the residual filter and projection; otherwise ``None``.

    Both must be detail plans: aggregation destroys the rows B would
    filter.  Exact-equal fingerprints are the caller's fast path and
    never reach here."""
    shape = b.detail
    if a.detail is None or shape is None or shape.core_key != a.detail.core_key:
        return None
    extra = _residual_conjuncts(shape.conjuncts, a.detail.conjuncts)
    if extra is None:
        return None
    rebased_extra = []
    for conjunct in extra:
        rebased = rebase(conjunct, a.detail)
        if rebased is None:
            return None
        rebased_extra.append(rebased)
    projected = []
    for expr in shape.out_exprs:
        rebased = rebase(expr, a.detail)
        if rebased is None:
            return None
        projected.append(rebased)
    project_schema = Schema(
        Field(name, expr.type, expr.nullable)
        for name, expr in zip(shape.out_names, projected)
    )
    return Residual(
        predicate=conjoin(rebased_extra), project=(projected, project_schema)
    )
