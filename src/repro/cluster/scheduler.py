"""Initial query scheduling (paper Section 4.4, first paragraph).

The scheduler traverses the stage tree bottom-up, generates tasks for each
stage, and establishes the communication links between them before any
driver runs.  Control-plane actions are charged to the RPC tracker so the
query initialization time shows up in measurements like the paper's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..buffers import OutputMode
from ..config import EngineConfig
from ..data import SplitLayout
from ..errors import SchedulingError
from ..exec.splits import RemoteSplit, SplitFeed, SystemSplit
from ..exec.task import Task
from ..sim import SimKernel
from .cluster import Cluster
from .rpc import RpcTracker
from .stage import StageExecution

if TYPE_CHECKING:  # pragma: no cover
    from .coordinator import QueryExecution

#: Control-plane request counts for scheduling actions.
RPC_CREATE_TASK = 3
RPC_UPDATE_LINK = 1


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
        #: Tasks placed by predicted demand rather than least-loaded.
        self.drr_placements = 0

    # ------------------------------------------------------------------
    def schedule(self, query: "QueryExecution") -> None:
        requests = 0
        for fragment in query.plan.bottom_up():
            stage = StageExecution(query, fragment)
            query.stages[fragment.id] = stage
            if fragment.is_source:
                stage.split_feed = self._make_feed(query, fragment.source_table)
            for _ in range(self._initial_dop(query, stage)):
                self.create_task(query, stage)
                requests += RPC_CREATE_TASK
        requests += self.wire_initial(query)
        query.init_requests = requests

        def start_all() -> None:
            # The query may have been cancelled/failed while its control
            # plane RPCs were in flight; starting drivers for it would run
            # the whole query with nobody collecting the result.
            if query.finished:
                return
            query.started_at = self.kernel.now
            for stage in query.stages.values():
                for task in stage.tasks:
                    task.start(self._initial_task_dop(query, stage))

        self.rpc.after_requests(requests, start_all, query_id=query.id)

    # ------------------------------------------------------------------
    def _make_feed(self, query: "QueryExecution", table: str) -> SplitFeed:
        catalog_table = self.split_layout.catalog.table(table)
        splits = [
            SystemSplit(catalog_table, info) for info in self.split_layout.splits(table)
        ]
        return SplitFeed(splits)

    def _initial_dop(self, query: "QueryExecution", stage: StageExecution) -> int:
        if stage.fragment.dop_fixed:
            return 1
        options = query.options
        if stage.id in options.stage_dops:
            return max(1, options.stage_dops[stage.id])
        if stage.fragment.is_source and options.scan_stage_dop is not None:
            return max(1, options.scan_stage_dop)
        if options.initial_stage_dop is not None:
            return max(1, options.initial_stage_dop)
        return max(1, self.config.default_stage_dop)

    def _initial_task_dop(self, query: "QueryExecution", stage: StageExecution) -> int:
        if stage.fragment.dop_fixed:
            return 1
        if query.options.initial_task_dop is not None:
            return max(1, query.options.initial_task_dop)
        return max(1, self.config.default_task_dop)

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
        if not stage.task_groups:
            stage.task_groups.append([])
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
            # Dead storage nodes are blacklisted; their splits stay readable
            # through durable disaggregated storage from any survivor.
            # Draining (combined) nodes are likewise skipped for *new*
            # placements while keeping their running scans.
            candidates = [
                n for n in nodes if self.cluster.storage_map[n].schedulable
            ] or [n for n in nodes if self.cluster.storage_map[n].alive]
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
        if prediction is None or not self.config.prediction.placement:
            return None
        demand = prediction.demand(stage.id)
        if demand is None:
            return None
        per_task_bytes = demand.peak_memory_bytes // max(1, demand.tasks)
        best = None
        best_score = None
        for node in sorted(self.cluster.schedulable_compute, key=lambda n: n.id):
            cpu_frac = (node.task_count + 1) / max(1, node.spec.cores)
            mem_frac = (
                (node.reserved_bytes + per_task_bytes)
                / max(1, node.spec.memory_bytes)
            )
            if mem_frac > 1.0:
                continue
            score = max(cpu_frac, mem_frac)
            if best_score is None or score < best_score:
                best, best_score = node, score
        if best is None:
            return None
        self.drr_placements += 1
        best.reserved_bytes += per_task_bytes
        stage.query.reservations.append((best, per_task_bytes))
        return best

    def release(self, query: "QueryExecution") -> None:
        """Return a retired query's placement reservations."""
        for node, nbytes in query.reservations:
            node.reserved_bytes -= nbytes
        query.reservations = []

    # ------------------------------------------------------------------
    def wire_initial(self, query: "QueryExecution") -> int:
        """Establish all initial communication links. Returns RPC count."""
        requests = 0
        for stage in query.stages.values():
            for child_id in stage.fragment.children:
                child = query.stages[child_id]
                requests += self.connect_stages(child, stage)
        return requests

    def connect_stages(self, child: StageExecution, parent: StageExecution) -> int:
        """Wire every active child task to every active parent task."""
        requests = 0
        parent_tasks = parent.active_group
        if child.fragment.output.mode is OutputMode.HASH:
            group_ids = [t.task_id.seq for t in parent_tasks]
            for upstream in child.active_tasks:
                upstream.output_buffer.set_group(group_ids)
                requests += RPC_UPDATE_LINK
        else:
            for upstream in child.active_tasks:
                for task in parent_tasks:
                    upstream.output_buffer.add_consumer(task.task_id.seq)
                requests += RPC_UPDATE_LINK
        for upstream in child.active_tasks:
            for task in parent_tasks:
                task.add_upstream(
                    child.id, RemoteSplit(upstream, task.task_id.seq)
                )
                requests += RPC_UPDATE_LINK
        return requests
