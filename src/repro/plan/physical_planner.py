"""Logical plan -> distributed physical plan (fragment/stage tree).

Follows the paper's stage shapes (Figures 4, 15, 21, 27):

* every table scan is its own stage,
* every hash join gets its own stage, probing a remote source from the
  probe child's stage and building from the build child's stage through a
  local exchange,
* partial aggregation is appended to the child's stage; final aggregation
  runs in a dedicated stage with parallelism fixed at 1,
* TopN/Sort/Limit run in the single-task output stage (stage 0), with a
  partial TopN/Limit pushed into the upstream stage,
* optionally, pure *shuffle stages* are interposed after selected table
  scans (Section 4.6) so the hash-partitioning work can be scaled
  independently of the scan.

Stage numbering is the paper's: stage 0 is the output stage, then a
probe-first depth-first traversal — reproducing e.g. Q3's S1..S5 layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..buffers import OutputMode
from ..data import Catalog
from ..errors import PlanningError
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
from .optimizer.stats import estimate_rows
from .physical import (
    OutputSpec,
    PFilterNode,
    PFinalAggNode,
    PJoinNode,
    PLimitNode,
    PLocalExchangeNode,
    PNode,
    POutputNode,
    PPartialAggNode,
    PProjectNode,
    PRemoteSourceNode,
    PScanNode,
    PSortNode,
    PTaskOutputNode,
    PTopNNode,
    PhysicalPlan,
    PlanFragment,
    partial_agg_schema,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryOptions

#: With ``join_distribution="auto"``, build sides estimated above this
#: row count use a partitioned join: at 1e12 rows, in effect never.
BROADCAST_THRESHOLD_ROWS = 1e12

@dataclass
class _Draft:
    """A fragment under construction (root still open at the top)."""

    root: PNode
    source_table: str | None = None
    dop_fixed: bool = False
    is_shuffle_stage: bool = False
    output: OutputSpec | None = None
    children: list["_Draft"] = field(default_factory=list)
    probe_child: "_Draft | None" = None
    build_children: list["_Draft"] = field(default_factory=list)
    id: int = -1


class PhysicalPlanner:
    def __init__(self, catalog: Catalog, options: "QueryOptions", elasticity: bool = True):
        """Plans under the session's plan-shaping ``options``; with
        ``elasticity`` on, build sides cache their pages so a DOP switch
        can rebuild hash tables (intermediate data caching, Section 4.5)."""
        self.catalog = catalog
        self.options = options
        self.elasticity = elasticity
        self._remote_sources: list[tuple[PRemoteSourceNode, _Draft]] = []

    # ------------------------------------------------------------------
    def plan(self, root: LogicalNode) -> PhysicalPlan:
        draft = self._plan_rel(root)
        if not draft.dop_fixed:
            draft = self._cut_to_single(draft)
        draft.root = POutputNode(draft.root)
        draft.output = OutputSpec(OutputMode.GATHER)
        return self._finalize(draft)

    # ------------------------------------------------------------------
    # recursive fragment construction
    # ------------------------------------------------------------------
    def _plan_rel(self, node: LogicalNode) -> _Draft:
        if isinstance(node, LogicalScan):
            return _Draft(
                root=PScanNode(node.table, node.column_indexes, node.schema),
                source_table=node.table,
            )
        if isinstance(node, LogicalFilter):
            draft = self._plan_rel(node.child)
            draft.root = PFilterNode(draft.root, node.predicate)
            return draft
        if isinstance(node, LogicalProject):
            draft = self._plan_rel(node.child)
            draft.root = PProjectNode(draft.root, node.exprs, node.schema)
            return draft
        if isinstance(node, LogicalJoin):
            return self._plan_join(node)
        if isinstance(node, LogicalAggregate):
            return self._plan_aggregate(node)
        if isinstance(node, LogicalTopN):
            draft = self._plan_rel(node.child)
            if not draft.dop_fixed:
                if self.options.partial_pushdown:
                    draft.root = PTopNNode(draft.root, node.count, node.sort_keys, partial=True)
                draft = self._cut_to_single(draft)
            draft.root = PTopNNode(draft.root, node.count, node.sort_keys)
            return draft
        if isinstance(node, LogicalSort):
            draft = self._plan_rel(node.child)
            if not draft.dop_fixed:
                draft = self._cut_to_single(draft)
            draft.root = PSortNode(draft.root, node.sort_keys)
            return draft
        if isinstance(node, LogicalLimit):
            draft = self._plan_rel(node.child)
            if not draft.dop_fixed:
                if self.options.partial_pushdown:
                    draft.root = PLimitNode(draft.root, node.count, partial=True)
                draft = self._cut_to_single(draft)
            draft.root = PLimitNode(draft.root, node.count)
            return draft
        raise PlanningError(f"cannot plan {type(node).__name__} physically")

    def _plan_join(self, node: LogicalJoin) -> _Draft:
        probe_draft = self._plan_rel(node.left)
        build_draft = self._plan_rel(node.right)
        distribution = self._join_distribution(node)

        join_draft = _Draft(root=None)  # type: ignore[arg-type]
        cache = self.elasticity

        if distribution == "partitioned":
            probe_draft = self._attach_child(
                join_draft,
                probe_draft,
                OutputSpec(OutputMode.HASH, tuple(node.left_keys)),
            )
            build_draft = self._attach_child(
                join_draft,
                build_draft,
                OutputSpec(OutputMode.HASH, tuple(node.right_keys), cache=cache),
                build=True,
            )
        else:
            probe_draft = self._attach_child(
                join_draft, probe_draft, OutputSpec(OutputMode.ARBITRARY)
            )
            build_draft = self._attach_child(
                join_draft,
                build_draft,
                OutputSpec(OutputMode.BROADCAST, cache=cache),
                build=True,
            )

        probe_source = self._remote_source(probe_draft)
        build_source = PLocalExchangeNode(self._remote_source(build_draft))
        join_draft.root = PJoinNode(
            probe=probe_source,
            build=build_source,
            join_type=node.join_type,
            probe_keys=list(node.left_keys),
            build_keys=list(node.right_keys),
            residual=node.residual,
            schema=node.schema,
            distribution=distribution,
        )
        join_draft.probe_child = probe_draft
        return join_draft

    def _plan_aggregate(self, node: LogicalAggregate) -> _Draft:
        child = self._plan_rel(node.child)
        partial_schema = partial_agg_schema(
            node.child.schema, node.group_keys, node.aggregates
        )
        child.root = PPartialAggNode(
            child.root, node.group_keys, node.aggregates, partial_schema
        )
        agg_draft = _Draft(root=None, dop_fixed=True)  # type: ignore[arg-type]
        child = self._attach_child(agg_draft, child, OutputSpec(OutputMode.GATHER))
        agg_draft.root = PFinalAggNode(
            self._remote_source(child),
            list(range(len(node.group_keys))),
            node.aggregates,
            node.schema,
        )
        agg_draft.probe_child = child
        return agg_draft

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _join_distribution(self, node: LogicalJoin) -> str:
        if node.join_type in (JoinType.SEMI, JoinType.ANTI, JoinType.CROSS):
            return "broadcast"
        mode = self.options.join_distribution
        if mode in ("partitioned", "broadcast"):
            return mode
        build_rows = estimate_rows(node.right, self.catalog)
        if build_rows > BROADCAST_THRESHOLD_ROWS:
            return "partitioned"
        return "broadcast"

    def _attach_child(
        self, parent: _Draft, child: _Draft, spec: OutputSpec, build: bool = False
    ) -> _Draft:
        """Close ``child`` with ``spec`` (inserting a shuffle stage when
        configured) and register it under ``parent``.  Returns the draft the
        parent should read from (the shuffle stage if one was inserted)."""
        child = self._maybe_insert_shuffle_stage(child, spec)
        if child.output is None:
            raise PlanningError("child draft was not closed")
        parent.children.append(child)
        if build:
            parent.build_children.append(child)
        return child

    def _maybe_insert_shuffle_stage(self, child: _Draft, spec: OutputSpec) -> _Draft:
        if (
            spec.mode is OutputMode.HASH
            and child.source_table is not None
            and child.source_table in self.options.shuffle_stage_tables
        ):
            self._close(child, OutputSpec(OutputMode.ARBITRARY))
            shuffle = _Draft(root=None, is_shuffle_stage=True)  # type: ignore[arg-type]
            shuffle.root = self._remote_source(child)
            shuffle.children.append(child)
            shuffle.probe_child = child
            self._close(shuffle, spec)
            return shuffle
        self._close(child, spec)
        return child

    def _close(self, draft: _Draft, spec: OutputSpec) -> None:
        draft.root = PTaskOutputNode(draft.root)
        draft.output = spec

    def _cut_to_single(self, draft: _Draft) -> _Draft:
        """Route ``draft`` through a gather into a new single-task draft."""
        self._close(draft, OutputSpec(OutputMode.GATHER))
        gathered = _Draft(root=None, dop_fixed=True)  # type: ignore[arg-type]
        gathered.root = self._remote_source(draft)
        gathered.children.append(draft)
        gathered.probe_child = draft
        return gathered

    def _remote_source(self, child: _Draft) -> PRemoteSourceNode:
        # The fragment id is patched after numbering.
        node = PRemoteSourceNode(-1, child.root.schema)
        self._remote_sources.append((node, child))
        return node

    # ------------------------------------------------------------------
    def _finalize(self, root_draft: _Draft) -> PhysicalPlan:
        order: list[_Draft] = []

        def visit(draft: _Draft) -> None:
            order.append(draft)
            ordered_children = []
            if draft.probe_child is not None and draft.probe_child in draft.children:
                ordered_children.append(draft.probe_child)
            ordered_children.extend(
                c for c in draft.children if c not in ordered_children
            )
            for child in ordered_children:
                visit(child)

        visit(root_draft)
        for i, draft in enumerate(order):
            draft.id = i
        for node, draft in self._remote_sources:
            node.child_fragment = draft.id

        fragments: dict[int, PlanFragment] = {}
        for draft in order:
            fragments[draft.id] = PlanFragment(
                id=draft.id,
                root=draft.root,
                output=draft.output or OutputSpec(OutputMode.GATHER),
                children=[c.id for c in draft.children],
                source_table=draft.source_table,
                probe_child=draft.probe_child.id if draft.probe_child else None,
                build_children=[c.id for c in draft.build_children],
                dop_fixed=draft.dop_fixed,
                is_shuffle_stage=draft.is_shuffle_stage,
            )
        return PhysicalPlan(fragments)
