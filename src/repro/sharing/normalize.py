"""Plan normalization and subplan subsumption for concurrent-query folding.

The fold detector (DESIGN.md §14) never compares SQL text: it compares
the :func:`~repro.tree.identity` of logical plans — conjuncts/disjuncts
sorted, ``=``/``<>`` operands ordered, ``>``/``>=`` rewritten as flipped
``<``/``<=``, consecutive ``Filter`` nodes merged — so two textually
different but semantically identical plans produce the same key across
runs and processes (no ``id()``/hash-seed leakage).  Only comparisons
and boolean connectives are reordered, which are result-exact under any
order; arithmetic is not.  Output column *names* are part of the key:
result schemas are user-visible.

On top of the keys, :func:`decompose` splits a plan into the shared
*core* (everything below the filter/projection/aggregation crown) plus
its crown, and :func:`plan_residual` decides whether query B can be
grafted onto carrier A: B folds when its core matches A's and A's filter
conjuncts are a subset of B's, in which case the returned
:class:`~repro.sharing.residual.Residual` holds B's extra conjuncts and
final projection/aggregation *rebased onto A's output columns*.

Safety rules (answers must stay bit-identical to an isolated run):

- plans containing ``Limit``/``TopN`` are never shared (ties/prefixes are
  tuple-order sensitive);
- residual re-aggregation folds only for *grouped* aggregations with
  order-insensitive aggregates: ``count``/``min``/``max`` always,
  ``sum``/``avg`` only over INT64 arguments (float sums depend on
  accumulation order), and never ``distinct``;
- everything else falls back to an exact-key fold or no fold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from ..pages import ColumnType, Field, Schema
from ..plan.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalTopN,
)
from ..sql.expressions import AggregateCall, BoolAnd, BoundExpr, InputRef
from ..tree import identity
from .residual import Residual

#: Bump when the identity rules change: keys from different rule versions
#: must never collide in a persisted store (``history.json`` buckets
#: written under an older version are orphaned by design).
NORMALIZE_VERSION = 2

#: Aggregate functions whose result does not depend on input row order.
#: ``sum``/``avg`` qualify only over exact (integer) arithmetic.
_ORDER_FREE_AGGS = ("count", "min", "max", "sum", "avg")


def split_conjuncts(predicate: BoundExpr) -> list[BoundExpr]:
    """A filter predicate as a flat list of AND-ed conjuncts."""
    if isinstance(predicate, BoolAnd):
        return [c for term in predicate.terms for c in split_conjuncts(term)]
    return [predicate]


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
class AggShape:
    """Decomposition of ``[Project_post] Aggregate [Project_pre] [Filter]*
    core``.  ``group_keys``/``aggregates`` are positions into (exprs
    over) the pre-projection output, exactly as planned."""

    detail: DetailShape
    group_keys: list[int]
    aggregates: list[AggregateCall]
    agg_schema: Schema
    post_exprs: list[BoundExpr] | None
    post_names: list[str] | None


@dataclass
class NormalizedQuery:
    """One query's normalized identity plus its foldable decomposition."""

    key: tuple
    root: LogicalNode
    #: Whether this plan may participate in sharing at all.
    shareable: bool
    #: Exactly one of detail/agg is set for decomposable crowns; both are
    #: None when the root shape is unrecognised (exact folds still work).
    detail: DetailShape | None
    agg: AggShape | None
    scan_tables: tuple[str, ...]


def _decompose_detail(node: LogicalNode) -> DetailShape:
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
            InputRef(i, f.type, f.name) for i, f in enumerate(core.schema.fields)
        ]
        out_names = core.schema.names()
    return DetailShape(
        core=core, conjuncts=conjuncts, out_exprs=out_exprs, out_names=out_names
    )


def decompose(root: LogicalNode) -> tuple[DetailShape | None, AggShape | None]:
    """Split the crown of a plan into a detail or aggregate shape."""
    node = root
    post_exprs: list[BoundExpr] | None = None
    post_names: list[str] | None = None
    if isinstance(node, LogicalProject) and isinstance(
        node.child, LogicalAggregate
    ):
        post_exprs = list(node.exprs)
        post_names = list(node.schema.names())
        node = node.child
    if isinstance(node, LogicalAggregate):
        return None, AggShape(
            detail=_decompose_detail(node.child),
            group_keys=list(node.group_keys),
            aggregates=list(node.aggregates),
            agg_schema=node.schema,
            post_exprs=post_exprs,
            post_names=post_names,
        )
    return _decompose_detail(root), None


def normalize_logical(root: LogicalNode) -> NormalizedQuery:
    nodes = list(root.walk())
    shareable = not any(isinstance(n, (LogicalTopN, LogicalLimit)) for n in nodes)
    detail, agg = (None, None)
    if shareable:
        detail, agg = decompose(root)
    return NormalizedQuery(
        key=(NORMALIZE_VERSION, identity(root)),
        root=root,
        shareable=shareable,
        detail=detail,
        agg=agg,
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
            return InputRef(i, expr.type, name)
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


def _combine(conjuncts: list[BoundExpr]) -> BoundExpr | None:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BoolAnd(tuple(conjuncts))


def _agg_fold_allowed(shape: AggShape) -> bool:
    if not shape.group_keys:
        # Global aggregates only fold on exact fingerprint match: an empty
        # residual stream must still produce the engine's global-agg
        # answer shape, which the residual evaluator does not reproduce.
        return False
    for call in shape.aggregates:
        if call.distinct or call.function not in _ORDER_FREE_AGGS:
            return False
        if call.function in ("sum", "avg") and (
            call.arg is None or call.arg.type is not ColumnType.INT64
        ):
            return False
    return True


def plan_residual(
    b: NormalizedQuery, a: NormalizedQuery
) -> Residual | None:
    """Can B be computed from carrier A's output stream?  If so, return
    the residual operator chain; otherwise ``None``.

    A must expose a detail stream (no aggregation crown — aggregation
    destroys the rows B would filter).  Exact-equal fingerprints are the
    caller's fast path and never reach here."""
    if a.detail is None or not a.shareable or not b.shareable:
        return None
    shape = b.detail if b.detail is not None else (
        b.agg.detail if b.agg is not None else None
    )
    if shape is None or shape.core_key != a.detail.core_key:
        return None
    if b.agg is not None and not _agg_fold_allowed(b.agg):
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
        Field(name, expr.type)
        for name, expr in zip(shape.out_names, projected)
    )
    predicate = _combine(rebased_extra)
    if b.agg is None:
        return Residual(
            predicate=predicate, project=(projected, project_schema)
        )
    ag = b.agg
    post = None
    if ag.post_exprs is not None:
        post_schema = Schema(
            Field(name, expr.type)
            for name, expr in zip(ag.post_names, ag.post_exprs)
        )
        post = (list(ag.post_exprs), post_schema)
    return Residual(
        predicate=predicate,
        project=(projected, project_schema),
        aggregate=(list(ag.group_keys), list(ag.aggregates), ag.agg_schema),
        post_project=post,
    )
