"""Initial query scheduling (paper Section 4.4, first paragraph).

The scheduler traverses the stage tree bottom-up, generates tasks for each
stage, and establishes the communication links between them before any
driver runs.  Control-plane actions are charged to the RPC tracker so the
query initialization time shows up in measurements like the paper's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import EngineConfig
from ..data import SplitLayout
from ..exec.splits import SplitFeed, SystemSplit
from ..exec.task import Task
from ..sim import SimKernel
from .cluster import Cluster
from .node import NODE_CORES, NODE_MEMORY_BYTES
from .rpc import RpcTracker
from .stage import StageExecution
from .topology import RPC_CREATE_TASK, connect_stages, start_after

if TYPE_CHECKING:  # pragma: no cover
    from ..plan.physical import PlanFragment
    from .coordinator import QueryExecution, QueryOptions

#: Tasks per stage / drivers per pipeline at query start, unless the
#: query's options say otherwise.
DEFAULT_STAGE_DOP = 1
DEFAULT_TASK_DOP = 1


def initial_stage_dop(fragment: "PlanFragment", options: "QueryOptions") -> int:
    """Tasks a stage starts with (admission sizes a query by the sum)."""
    if fragment.dop_fixed:
        return 1
    if fragment.id in options.stage_dops:
        return max(1, options.stage_dops[fragment.id])
    if fragment.is_source and options.scan_stage_dop is not None:
        return max(1, options.scan_stage_dop)
    if options.initial_stage_dop is not None:
        return max(1, options.initial_stage_dop)
    return DEFAULT_STAGE_DOP


class Scheduler:
    def __init__(
        self,
        kernel: SimKernel,
        cluster: Cluster,
        config: EngineConfig,
        rpc: RpcTracker,
        split_layout: SplitLayout,
    ):
        self.kernel = kernel
        self.cluster = cluster
        self.config = config
        self.rpc = rpc
        self.split_layout = split_layout

    # ------------------------------------------------------------------
    def schedule(self, query: "QueryExecution") -> None:
        requests = 0
        for fragment in query.plan.bottom_up():
            stage = StageExecution(query, fragment)
            query.stages[fragment.id] = stage
            if fragment.is_source:
                stage.split_feed = self._make_feed(query, fragment.source_table)
            for _ in range(initial_stage_dop(fragment, query.options)):
                self.create_task(query, stage)
                requests += RPC_CREATE_TASK
        requests += connect_stages(query)
        query.init_requests = requests

        def start_all() -> None:
            query.started_at = self.kernel.now
            for stage in query.stages.values():
                for task in stage.tasks:
                    task.start(self._initial_task_dop(query, stage))

        start_after(self, query, requests, start_all)

    # ------------------------------------------------------------------
    def _make_feed(self, query: "QueryExecution", table: str) -> SplitFeed:
        catalog_table = self.split_layout.catalog.table(table)
        splits = [
            SystemSplit(catalog_table, info) for info in self.split_layout.splits(table)
        ]
        return SplitFeed(splits)

    def _initial_task_dop(self, query: "QueryExecution", stage: StageExecution) -> int:
        if stage.fragment.dop_fixed:
            return 1
        if query.options.initial_task_dop is not None:
            return max(1, query.options.initial_task_dop)
        return DEFAULT_TASK_DOP

    # ------------------------------------------------------------------
    def create_task(self, query: "QueryExecution", stage: StageExecution) -> Task:
        """Create (but do not start) one task for ``stage``."""
        node = self._place(stage)
        task = Task(
            kernel=self.kernel,
            config=query.config,
            layout=stage.layout,
            seq=stage.next_seq(),
            node=node,
            storage_nodes=self.cluster.storage_map,
            split_feed=stage.split_feed,
            collect_output=query.collect_output if stage.id == 0 else None,
            on_finished=lambda t, s=stage: query.task_finished(s, t),
            on_error=lambda t, exc, s=stage: query.task_errored(s, t, exc),
            query_id=query.id,
            trace_parent=stage.trace_span,
            memory=query.memory,
        )
        stage.tasks.append(task)
        stage.task_groups[-1].append(task)
        return task

    def _place(self, stage: StageExecution):
        if stage.fragment.is_source and stage.split_feed is not None:
            nodes = sorted(
                {
                    s.storage_node
                    for s in self.split_layout.splits(stage.fragment.source_table)
                }
            )
            # Dead storage nodes are blacklisted, and draining (combined)
            # nodes are skipped for *new* placements while keeping their
            # running scans.  With no schedulable split holder left the
            # scan goes to a compute node below and reads its splits
            # remotely (durable disaggregated storage) -- never back onto
            # the node being drained.
            candidates = [
                n for n in nodes if self.cluster.storage_map[n].schedulable
            ]
            if candidates:
                index = len(stage.tasks) % len(candidates)
                return self.cluster.storage_map[candidates[index]]
        return self._place_predicted(stage) or self.cluster.least_loaded_compute()

    def _place_predicted(self, stage: StageExecution):
        """Dominant-remaining-resource packing under the query's predicted
        demand (DESIGN.md §16): the node minimizing max(core fraction,
        memory fraction) after placement.  Reserves the predicted
        per-task memory on the chosen node until the query retires;
        returns None (least-loaded placement) for stages without a
        prediction."""
        prediction = stage.query.prediction
        if prediction is None:
            return None
        demand = prediction.demand(stage.id)
        if demand is None:
            return None
        per_task_bytes = demand.peak_memory_bytes // max(1, demand.tasks)
        best = None
        best_score = None
        for node in sorted(self.cluster.schedulable_compute, key=lambda n: n.id):
            cpu_frac = (node.task_count + 1) / NODE_CORES
            mem_frac = (node.reserved_bytes + per_task_bytes) / NODE_MEMORY_BYTES
            if mem_frac > 1.0:
                continue
            score = max(cpu_frac, mem_frac)
            if best_score is None or score < best_score:
                best, best_score = node, score
        if best is None:
            return None
        self.kernel.decisions.record(
            "placement", "drr", query_id=stage.query.id, stage=stage.id,
            node=best.name, score=best_score, reserved_bytes=per_task_bytes,
        )
        best.reserved_bytes += per_task_bytes
        stage.query.reservations.append((best, per_task_bytes))
        return best

    def release(self, query: "QueryExecution") -> None:
        """Return a retired query's placement reservations."""
        for node, nbytes in query.reservations:
            node.reserved_bytes -= nbytes
        query.reservations = []
