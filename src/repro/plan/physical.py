"""Physical plan: fragment (stage) tree of operator descriptors.

A :class:`PhysicalPlan` is a set of :class:`PlanFragment` objects — the
paper's *stages* (Figure 4).  Fragment roots are task-output nodes (or the
final coordinator-output node for stage 0); fragment leaves are table
scans or remote sources reading a child fragment through the exchange.

Fragments are descriptors: tasks instantiate operators from them at
schedule time, and the *same* descriptor is reused when the dynamic
scheduler spawns additional tasks mid-query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..buffers import OutputMode
from ..pages import ColumnType, Field, Schema
from ..sql.expressions import AggregateCall, BoundExpr
from ..sql.functions import partial_fields
from ..tree import Tree
from .logical import JoinType


class PNode(Tree):
    """Base physical node; ``schema`` is the node's output schema."""

    schema: Schema

    @property
    def name(self) -> str:
        """The node kind (``Scan``, ``Filter``, ...): the layer probes of
        ``bench/probes.py`` select plan nodes by it."""
        return type(self).__name__.removeprefix("P").removesuffix("Node")


@dataclass
class PScanNode(PNode):
    table: str
    column_indexes: tuple[int, ...]
    schema: Schema

    def describe(self) -> str:
        return f"TableScan[{self.table}]({', '.join(self.schema.names())})"


@dataclass
class PRemoteSourceNode(PNode):
    """Reads a child fragment's output through an exchange operator."""

    child_fragment: int
    schema: Schema

    def describe(self) -> str:
        return f"RemoteSource[stage {self.child_fragment}]"


@dataclass
class PLocalExchangeNode(PNode):
    child: PNode

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        return "LocalExchange"


@dataclass
class PFilterNode(PNode):
    child: PNode
    predicate: BoundExpr

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        return f"Filter[{self.predicate}]"


@dataclass
class PProjectNode(PNode):
    child: PNode
    exprs: list[BoundExpr]
    schema: Schema

    def describe(self) -> str:
        return f"Project[{', '.join(self.schema.names())}]"


@dataclass
class PPartialAggNode(PNode):
    """Partial (pre-)aggregation: stateless by the paper's classification —
    its state can be destroyed (flushed downstream) and reconstructed, so
    the DOP of its stage stays tunable (Section 4.1)."""

    child: PNode
    group_keys: list[int]
    aggregates: list[AggregateCall]
    schema: Schema

    def describe(self) -> str:
        return f"PartialAggregate[{len(self.group_keys)} keys, {len(self.aggregates)} aggs]"


@dataclass
class PFinalAggNode(PNode):
    """Final aggregation: stateful; its stage/task parallelism is fixed at 1."""

    child: PNode
    group_keys: list[int]
    aggregates: list[AggregateCall]
    schema: Schema

    def describe(self) -> str:
        return f"FinalAggregate[{len(self.group_keys)} keys, {len(self.aggregates)} aggs]"


@dataclass
class PJoinNode(PNode):
    """Hash join: probe child feeds the driver pipeline, build child feeds
    the build pipelines through a local exchange."""

    probe: PNode
    build: PNode
    join_type: JoinType
    probe_keys: list[int]
    build_keys: list[int]
    residual: BoundExpr | None
    schema: Schema
    #: "broadcast" or "partitioned" — decides the runtime tuning strategy
    #: (hash-table rebuild vs DOP switching, paper Sections 4.4/4.5).
    distribution: str = "broadcast"

    def describe(self) -> str:
        keys = ", ".join(f"p{k}=b{j}" for k, j in zip(self.probe_keys, self.build_keys))
        return f"HashJoin[{self.join_type.value}, {self.distribution}, {keys or 'TRUE'}]"


@dataclass
class PTopNNode(PNode):
    child: PNode
    count: int
    sort_keys: list[tuple[int, bool]]
    partial: bool = False

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        return f"TopN[{'partial ' if self.partial else ''}{self.count}]"


@dataclass
class PSortNode(PNode):
    child: PNode
    sort_keys: list[tuple[int, bool]]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        return "Sort"


@dataclass
class PLimitNode(PNode):
    child: PNode
    count: int
    partial: bool = False

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        return f"Limit[{'partial ' if self.partial else ''}{self.count}]"


@dataclass
class PTaskOutputNode(PNode):
    """Fragment root: delivers pages to the task output buffer."""

    child: PNode

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        return "TaskOutput"


@dataclass
class POutputNode(PNode):
    """Stage-0 root: delivers result pages to the coordinator."""

    child: PNode

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def describe(self) -> str:
        return "Output"


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OutputSpec:
    """How a fragment's output is distributed to its parent stage."""

    mode: OutputMode
    keys: tuple[int, ...] = ()
    #: Keep produced pages in the page cache (intermediate data caching,
    #: Section 4.5 — enables hash-table rebuild without re-running the
    #: upstream computation).
    cache: bool = False


@dataclass
class PlanFragment:
    """One stage of the distributed plan."""

    id: int
    root: PNode
    output: OutputSpec
    children: list[int] = field(default_factory=list)
    source_table: str | None = None
    #: Fragment whose output feeds this fragment's driver (probe) pipeline.
    probe_child: int | None = None
    #: Fragments feeding hash-join build sides within this fragment.
    build_children: list[int] = field(default_factory=list)
    #: True for stages whose parallelism is pinned to one task (final
    #: aggregation / gather stages, paper Section 4.1).
    dop_fixed: bool = False
    #: True for pure shuffle stages (exchange -> task output, Section 4.6).
    is_shuffle_stage: bool = False

    @property
    def is_source(self) -> bool:
        return self.source_table is not None

    @property
    def schema(self) -> Schema:
        return self.root.schema

    def describe(self) -> str:
        flags = []
        if self.is_source:
            flags.append(f"scan={self.source_table}")
        if self.dop_fixed:
            flags.append("dop=1 fixed")
        if self.is_shuffle_stage:
            flags.append("shuffle-stage")
        head = f"Stage {self.id} [{self.output.mode.value}{' ' + ' '.join(flags) if flags else ''}]"
        return head + "\n" + self.root.pretty(1)


@dataclass
class PhysicalPlan:
    """The full distributed plan: fragment 0 is the output stage."""

    fragments: dict[int, PlanFragment]

    @property
    def root(self) -> PlanFragment:
        return self.fragments[0]

    def fragment(self, fragment_id: int) -> PlanFragment:
        return self.fragments[fragment_id]

    def parents_of(self, fragment_id: int) -> list[int]:
        return [
            f.id for f in self.fragments.values() if fragment_id in f.children
        ]

    def probe_scan(self, fragment_id: int) -> int | None:
        """The table-scan fragment feeding ``fragment_id``'s probe input
        chain (itself, for a scan): follows ``probe_child`` links down the
        fragment tree (e.g. Q3's S1 -> S2, S3 -> S4, Figure 21)."""
        current = self.fragments[fragment_id]
        seen = set()
        while current.id not in seen:
            seen.add(current.id)
            if current.is_source:
                return current.id
            if current.probe_child is None:
                return None
            current = self.fragments[current.probe_child]
        return None

    def bottom_up(self) -> list[PlanFragment]:
        """Fragments ordered children-before-parents (scheduling order)."""
        order: list[PlanFragment] = []
        visited: set[int] = set()

        def visit(fid: int) -> None:
            if fid in visited:
                return
            visited.add(fid)
            for child in self.fragments[fid].children:
                visit(child)
            order.append(self.fragments[fid])

        visit(0)
        return order

    def describe(self) -> str:
        return "\n".join(
            self.fragments[fid].describe() for fid in sorted(self.fragments)
        )


def partial_agg_schema(
    input_schema: Schema, group_keys: list[int], aggregates: list[AggregateCall]
) -> Schema:
    """Schema of partial-aggregation output: group keys then state columns."""
    fields: list[Field] = [input_schema.fields[k] for k in group_keys]
    for i, agg in enumerate(aggregates):
        arg_type = agg.arg.type if agg.arg is not None else None
        for j, state_type in enumerate(partial_fields(agg.function, arg_type, agg.skips_nulls)):
            fields.append(Field(f"{agg.function}_{i}_{j}", state_type))
    return Schema(fields)
