"""Fragment -> pipelines (paper Figure 6).

A fragment cannot execute directly in a task: it is rewritten (output node
appended by the physical planner) and subdivided at the pipeline breakers —
local exchange nodes (split into sink + source) and hash join nodes (split
into build + probe).  The result is an ordered list of
:class:`PipelineSpec`, each a sequence of operator descriptors a task turns
into physical operator sequences (drivers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanningError
from ..pages import Schema
from .physical import (
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
    PlanFragment,
)

_TRANSFORM_NODES = (
    PFilterNode,
    PProjectNode,
    PPartialAggNode,
    PFinalAggNode,
    PTopNNode,
    PSortNode,
    PLimitNode,
)


@dataclass(frozen=True)
class SourceSpec:
    kind: str  # "scan" | "exchange" | "local_exchange"
    table: str | None = None
    child_fragment: int | None = None
    local_exchange: int | None = None
    schema: Schema | None = None
    #: For scans: positions of the selected columns in the base table.
    column_indexes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SinkSpec:
    kind: str  # "task_output" | "local_exchange" | "join_build" | "coordinator"
    local_exchange: int | None = None
    bridge: int | None = None


@dataclass(frozen=True)
class BridgeSpec:
    id: int
    build_schema: Schema
    build_keys: tuple[int, ...]
    join: PJoinNode


@dataclass
class PipelineSpec:
    id: int
    source: SourceSpec
    transforms: list[PNode]
    sink: SinkSpec
    #: Whether intra-task DOP tuning may change this pipeline's driver
    #: count (build pipelines are excluded; the paper tunes probe/exchange
    #: pipelines, Section 4.1).
    tunable: bool = True

    def describe(self) -> str:
        parts = [self.source.kind]
        parts += [t.name for t in self.transforms]
        parts.append(self.sink.kind)
        flag = "" if self.tunable else " (fixed)"
        return f"pipeline {self.id}: " + " -> ".join(parts) + flag


@dataclass
class FragmentLayout:
    """Everything a task needs to instantiate a fragment."""

    fragment: PlanFragment
    pipelines: list[PipelineSpec] = field(default_factory=list)
    bridges: list[BridgeSpec] = field(default_factory=list)
    local_exchanges: int = 0
    #: child fragment id -> schema, for exchange client creation.
    exchange_children: dict[int, Schema] = field(default_factory=dict)

    def describe(self) -> str:
        return "\n".join(p.describe() for p in self.pipelines)


def fragment_pipelines(fragment: PlanFragment) -> FragmentLayout:
    """Split ``fragment`` into pipelines (build sides first, main last)."""
    layout = FragmentLayout(fragment)

    def new_pipeline(source: SourceSpec, transforms: list[PNode], sink: SinkSpec, tunable: bool) -> PipelineSpec:
        spec = PipelineSpec(len(layout.pipelines), source, transforms, sink, tunable)
        layout.pipelines.append(spec)
        return spec

    def descend(node: PNode) -> tuple[SourceSpec, list[PNode]]:
        """Source + transform chain for the pipeline containing ``node``."""
        if isinstance(node, PScanNode):
            return (
                SourceSpec(
                    "scan",
                    table=node.table,
                    schema=node.schema,
                    column_indexes=tuple(node.column_indexes),
                ),
                [],
            )
        if isinstance(node, PRemoteSourceNode):
            layout.exchange_children[node.child_fragment] = node.schema
            return (
                SourceSpec(
                    "exchange", child_fragment=node.child_fragment, schema=node.schema
                ),
                [],
            )
        if isinstance(node, PLocalExchangeNode):
            lx_id = layout.local_exchanges
            layout.local_exchanges += 1
            inner_source, inner_ops = descend(node.child)
            new_pipeline(
                inner_source,
                inner_ops,
                SinkSpec("local_exchange", local_exchange=lx_id),
                tunable=True,
            )
            return (
                SourceSpec("local_exchange", local_exchange=lx_id, schema=node.schema),
                [],
            )
        if isinstance(node, PJoinNode):
            build_source, build_ops = descend(node.build)
            bridge = BridgeSpec(
                id=len(layout.bridges),
                build_schema=node.build.schema,
                build_keys=tuple(node.build_keys),
                join=node,
            )
            layout.bridges.append(bridge)
            new_pipeline(
                build_source,
                build_ops,
                SinkSpec("join_build", bridge=bridge.id),
                tunable=False,
            )
            probe_source, probe_ops = descend(node.probe)
            return probe_source, probe_ops + [node]
        if isinstance(node, _TRANSFORM_NODES):
            source, ops = descend(node.child)
            return source, ops + [node]
        raise PlanningError(f"cannot pipeline {type(node).__name__}")

    root = fragment.root
    if isinstance(root, POutputNode):
        sink = SinkSpec("coordinator")
    elif isinstance(root, PTaskOutputNode):
        sink = SinkSpec("task_output")
    else:
        raise PlanningError("fragment root must be an output node")
    source, ops = descend(root.child)
    new_pipeline(source, ops, sink, tunable=True)
    return layout
