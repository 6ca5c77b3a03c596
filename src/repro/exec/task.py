"""Tasks: the smallest unit of distributed execution.

A task instantiates one fragment on one node: it creates the shared
structures (output buffer, exchange clients, local exchanges, join
bridges), generates drivers from the pipeline specs, and tracks their
lifecycle.  The task context exposes the runtime counters that the
coordinator's information collector aggregates into the query-stage-task
tree (paper Section 5.1, Figure 18).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..buffers import LocalExchange, WaiterList, make_output_buffer
from ..config import EngineConfig
from ..errors import SchedulingError
from ..pages import Page
from ..plan.physical import (
    PFilterNode,
    PFinalAggNode,
    PJoinNode,
    PLimitNode,
    PNode,
    PPartialAggNode,
    PProjectNode,
    PSortNode,
    PTopNNode,
)
from ..plan.pipelines import FragmentLayout, PipelineSpec
from ..sim import SimKernel
from .driver import Driver
from .exchange_client import ExchangeClient
from .operators.aggregation import FinalAggOperator, PartialAggOperator
from .operators.base import SinkOperator, SourceOperator, TransformOperator
from .operators.basic import FilterOperator, LimitOperator, ProjectOperator
from .operators.join import HashJoinProbeOperator, JoinBridge, JoinBuildSink
from .operators.sinks import CoordinatorSink, LocalExchangeSink, TaskOutputSink
from .operators.sorting import SortOperator, TopNOperator
from .operators.sources import ExchangeSource, LocalExchangeSource, ScanSource
from .splits import RemoteSplit, SplitFeed

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from .memory import QueryMemory


@dataclass(frozen=True, order=True)
class TaskId:
    stage: int
    seq: int

    def __str__(self) -> str:
        return f"task{self.stage}_{self.seq}"


class PipelineRuntime:
    def __init__(self, spec: PipelineSpec):
        self.spec = spec
        self.drivers: list[Driver] = []
        self.finished_drivers = 0

    @property
    def active_drivers(self) -> int:
        return len(self.drivers) - self.finished_drivers

    @property
    def finished(self) -> bool:
        return bool(self.drivers) and self.finished_drivers >= len(self.drivers)


class Task:
    def __init__(
        self,
        kernel: SimKernel,
        config: EngineConfig,
        layout: FragmentLayout,
        seq: int,
        node: "Node",
        storage_nodes: dict[int, "Node"] | None = None,
        split_feed: SplitFeed | None = None,
        collect_output: Callable[[Page], None] | None = None,
        on_finished: Callable[["Task"], None] | None = None,
        on_error: Callable[["Task", Exception], None] | None = None,
        query_id: int | None = None,
        trace_parent: int | None = None,
        memory: "QueryMemory | None" = None,
    ):
        self.kernel = kernel
        self.config = config
        self.cost = config.cost
        self.layout = layout
        self.fragment = layout.fragment
        self.task_id = TaskId(self.fragment.id, seq)
        self.node = node
        self.storage_nodes = storage_nodes or {}
        self.split_feed = split_feed
        self.collect_output = collect_output
        self.on_finished = on_finished
        self.on_error = on_error
        self.created_at = kernel.now
        self.finished_at: float | None = None
        self.finished = False
        #: Set by fault injection / node death; crashed tasks never run
        #: another driver quantum and never fire ``on_finished``.
        self.crashed = False
        self.crash_reason: str | None = None
        self.error: Exception | None = None
        #: Set once the recovery manager has dealt with this crashed task.
        self.recovered = False
        #: The task respawned in this crashed task's place; buffer-ID
        #: groups that still name the dead seq resolve through the chain.
        self.replaced_by: "Task | None" = None
        #: An elastic shutdown (Section 4.4 end signals) is already on its
        #: way to this task, so repeated drain passes skip it.
        self.end_signalled = False
        #: Driver quanta currently holding a core (their commits are
        #: quantum-atomic: they deliver even across a crash, so recovery
        #: waits for them before sealing the old output spool).
        self.inflight_quanta = 0
        #: What runs once ``inflight_quanta`` drops to 0 (:meth:`drained`).
        self.drain_callbacks: list = []
        #: Set by :meth:`seal` once the query retired this task.
        self.sealed = False
        self.query_id = query_id
        #: Per-query memory accounting; None means unlimited (no budget).
        self.memory = memory
        self._op_seq = 0
        self._memory_handles: list = []
        self.trace_span = kernel.tracer.begin(
            "task",
            str(self.task_id),
            parent=trace_parent,
            node=node.name,
            query_id=query_id,
        )

        output = self.fragment.output
        self.output_buffer = make_output_buffer(
            kernel,
            config.buffers,
            output.mode,
            name=f"{self.task_id}.out",
            keys=output.keys,
            cache_pages=output.cache,
            cpu=node.cpu,
            cost=self.cost,
        )
        self.exchange_clients: dict[int, ExchangeClient] = {
            child: ExchangeClient(
                kernel,
                config.buffers,
                self.cost,
                node,
                name=f"{self.task_id}.x{child}",
            )
            for child in layout.exchange_children
        }
        self.local_exchanges = [
            LocalExchange(f"{self.task_id}.lx{i}")
            for i in range(layout.local_exchanges)
        ]
        self.bridges = [
            JoinBridge(
                kernel,
                b.build_schema,
                list(b.build_keys),
                f"{self.task_id}.b{b.id}",
                memory=self._op_memory(f"b{b.id}"),
            )
            for b in layout.bridges
        ]
        self._bridge_by_join = {
            id(spec.join): i for i, spec in enumerate(layout.bridges)
        }
        self.pipelines = [PipelineRuntime(spec) for spec in layout.pipelines]
        node.task_count += 1
        if self.trace_span > 0:
            # Buffers report turn-up/resize instants under this task's span.
            self.output_buffer.capacity.trace_parent = self.trace_span
            for client in self.exchange_clients.values():
                client.buffer.trace_parent = self.trace_span

    # ------------------------------------------------------------------
    def _op_memory(self, label: str):
        """An accounting handle for one stateful operator of this task
        (None when the query runs without memory accounting)."""
        if self.memory is None:
            return None
        self._op_seq += 1
        handle = self.memory.operator(
            f"{self.task_id}.{label}.{self._op_seq}", trace_parent=self.trace_span
        )
        self._memory_handles.append(handle)
        return handle

    # ------------------------------------------------------------------
    # wiring (called by repro.cluster.topology)
    # ------------------------------------------------------------------
    def add_upstream(self, child_fragment: int, split: RemoteSplit) -> None:
        """Register an upstream task in the global remote split set."""
        client = self.exchange_clients.get(child_fragment)
        if client is None:
            raise SchedulingError(
                f"{self.task_id} has no exchange for stage {child_fragment}"
            )
        client.add_split(split)

    # ------------------------------------------------------------------
    # driver management
    # ------------------------------------------------------------------
    def start(self, task_dop: int) -> None:
        if self.finished:
            # Torn down before it started: another task's first quantum
            # already failed the query.
            return
        for runtime in self.pipelines:
            count = task_dop if runtime.spec.tunable else 1
            for _ in range(max(1, count)):
                self._spawn_driver(runtime)

    def add_drivers(self, pipeline_id: int, count: int) -> int:
        """Intra-task DOP increase (Section 4.3). Returns drivers created."""
        runtime = self._pipeline(pipeline_id)
        if runtime.finished or self.finished:
            return 0
        for _ in range(count):
            self._spawn_driver(runtime)
        return count

    def remove_drivers(self, pipeline_id: int, count: int) -> int:
        """Intra-task DOP decrease via end signals (Section 4.3)."""
        runtime = self._pipeline(pipeline_id)
        candidates = [
            d for d in runtime.drivers if not d.finished and not d.end_requested
        ]
        # Always keep at least one driver alive.
        removable = max(0, min(count, len(candidates) - 1))
        for driver in candidates[:removable]:
            driver.request_end()
        return removable

    def request_end(self) -> None:
        """End-signal every driver: a scan returns its unread splits to
        the feed, stateful operators flush, and the pipelines drain."""
        for runtime in self.pipelines:
            for driver in runtime.drivers:
                driver.request_end()

    def driver_count(self, pipeline_id: int | None = None) -> int:
        if pipeline_id is not None:
            return self._pipeline(pipeline_id).active_drivers
        return sum(p.active_drivers for p in self.pipelines)

    def _pipeline(self, pipeline_id: int) -> PipelineRuntime:
        for runtime in self.pipelines:
            if runtime.spec.id == pipeline_id:
                return runtime
        raise SchedulingError(f"{self.task_id}: no pipeline {pipeline_id}")

    @property
    def tunable_pipeline(self) -> PipelineRuntime:
        """The pipeline targeted by task-DOP tuning (the output pipeline)."""
        return self.pipelines[-1]

    def _spawn_driver(self, runtime: PipelineRuntime) -> Driver:
        spec = runtime.spec
        driver = Driver(
            task=self,
            pipeline_id=spec.id,
            driver_id=len(runtime.drivers),
            source=self._make_source(spec),
            transforms=[self._make_transform(n) for n in spec.transforms],
            sink=self._make_sink(spec),
        )
        runtime.drivers.append(driver)
        driver.start()
        return driver

    def _make_source(self, spec: PipelineSpec) -> SourceOperator:
        src = spec.source
        if src.kind == "scan":
            if self.split_feed is None:
                raise SchedulingError(f"{self.task_id}: scan task without split feed")
            return ScanSource(
                self.kernel,
                self.cost,
                self.split_feed,
                self.node,
                self.config.page_row_limit,
                self.storage_nodes,
                column_indexes=src.column_indexes,
            )
        if src.kind == "exchange":
            return ExchangeSource(self.cost, self.exchange_clients[src.child_fragment])
        if src.kind == "local_exchange":
            return LocalExchangeSource(
                self.cost, self.local_exchanges[src.local_exchange]
            )
        raise SchedulingError(f"unknown source kind {src.kind}")

    def _make_sink(self, spec: PipelineSpec) -> SinkOperator:
        sink = spec.sink
        if sink.kind == "task_output":
            return TaskOutputSink(self.cost, self.output_buffer)
        if sink.kind == "local_exchange":
            return LocalExchangeSink(self.cost, self.local_exchanges[sink.local_exchange])
        if sink.kind == "join_build":
            return JoinBuildSink(self.cost, self.bridges[sink.bridge])
        if sink.kind == "coordinator":
            if self.collect_output is None:
                raise SchedulingError(f"{self.task_id}: no output collector")
            return CoordinatorSink(self.cost, self.collect_output)
        raise SchedulingError(f"unknown sink kind {sink.kind}")

    def _make_transform(self, node: PNode) -> TransformOperator:
        if isinstance(node, PFilterNode):
            return FilterOperator(self.cost, node.predicate)
        if isinstance(node, PProjectNode):
            return ProjectOperator(self.cost, node.exprs, node.schema)
        if isinstance(node, PPartialAggNode):
            return PartialAggOperator(
                self.cost,
                node.group_keys,
                node.aggregates,
                node.schema,
                row_limit=self.config.page_row_limit,
                memory=self._op_memory("partial_agg"),
            )
        if isinstance(node, PFinalAggNode):
            return FinalAggOperator(
                self.cost,
                len(node.group_keys),
                node.aggregates,
                node.schema,
                row_limit=self.config.page_row_limit,
                memory=self._op_memory("final_agg"),
            )
        if isinstance(node, PJoinNode):
            bridge = self.bridges[self._bridge_by_join[id(node)]]
            return HashJoinProbeOperator(
                self.cost,
                bridge,
                node.join_type,
                node.probe_keys,
                node.residual,
                node.schema,
            )
        if isinstance(node, PTopNNode):
            return TopNOperator(
                self.cost, node.schema, node.count, node.sort_keys, node.partial,
                row_limit=self.config.page_row_limit,
            )
        if isinstance(node, PSortNode):
            return SortOperator(
                self.cost, node.schema, node.sort_keys,
                row_limit=self.config.page_row_limit,
            )
        if isinstance(node, PLimitNode):
            return LimitOperator(self.cost, node.count, node.partial)
        raise SchedulingError(f"no operator for {type(node).__name__}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def driver_finished(self, driver: Driver) -> None:
        runtime = self._pipeline(driver.pipeline_id)
        runtime.finished_drivers += 1
        if all(p.finished for p in self.pipelines) and not self.finished:
            # A shuffle output buffer may still hold in-flight partitioning
            # work; the task stays alive (and its stage tunable) until the
            # shuffle executors drain.
            self.output_buffer.when_drained(self._finish)

    def _finish(self) -> None:
        self.finished = True
        self.finished_at = self.kernel.now
        self.node.task_count -= 1
        self._release_memory()
        self.output_buffer.task_finished()
        self.kernel.tracer.end(self.trace_span)
        if self.on_finished is not None:
            self.on_finished(self)

    def _release_memory(self) -> None:
        """Return this task's tracked bytes to the query budget (finished
        or crashed tasks no longer hold operator state)."""
        for handle in self._memory_handles:
            handle.update(0)

    def crash(self, reason: str = "node down") -> None:
        """Kill this task mid-execution (fault injection).

        Marks the task dead so pending driver quanta become no-ops.  The
        output buffer is deliberately left untouched: already-spooled
        pages survive on durable storage, and the recovery manager decides
        whether to keep (resumable scan) or abort (restart) them.
        ``on_finished`` is *not* fired — the stage does not count a
        crashed task as completed work."""
        if self.finished or self.crashed:
            return
        self.crashed = True
        self.finished = True
        self.finished_at = self.kernel.now
        self.node.task_count -= 1
        self._release_memory()
        self.crash_reason = reason
        self.kernel.tracer.end(self.trace_span, crashed=True, reason=reason)
        for client in self.exchange_clients.values():
            client.close()

    @property
    def stateless_scan(self) -> bool:
        """Pure filter/project over a split feed, spooling straight to the
        task output buffer: after a crash its spool stays valid and a
        fresh task continues the scan (recovery class R3)."""
        if not self.fragment.is_source or self.split_feed is None:
            return False
        if self.exchange_clients or self.bridges or self.local_exchanges:
            return False
        return all(
            runtime.spec.sink.kind == "task_output"
            and all(
                isinstance(node, (PFilterNode, PProjectNode))
                for node in runtime.spec.transforms
            )
            for runtime in self.pipelines
        )

    def report_error(self, exc: Exception) -> None:
        """A driver quantum raised: record it and escalate to the query."""
        if self.error is not None:
            return
        self.error = exc
        self.crash(reason=f"operator error: {exc}")
        if self.on_error is not None:
            self.on_error(self, exc)

    def when_quanta_drained(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once no driver quantum of this task holds a core
        (immediately if none does)."""
        if self.inflight_quanta == 0:
            fn()
        else:
            self.drain_callbacks.append(fn)

    def quantum_done(self) -> None:
        """A quantum released its core: the commit of a blocked one (a
        delivering quantum's commit does the same inline)."""
        self.inflight_quanta -= 1
        if not self.inflight_quanta and self.drain_callbacks:
            self.drained()

    def drained(self) -> None:
        """No quantum holds a core any more: run what waited for that."""
        callbacks, self.drain_callbacks = self.drain_callbacks, []
        for fn in callbacks:
            fn()

    def seal(self) -> None:
        """Retirement (DESIGN.md §17): drop every page, operator state and
        callback this task holds once nothing of its query runs any more.
        The shells stay, with every counter the samplers, ``describe()``
        and the demand history read."""
        for buffer in (self.output_buffer, *self.exchange_clients.values(), *self.local_exchanges):
            buffer.seal()
        for bridge in self.bridges:
            bridge.pages, bridge.index, bridge.on_ready = [], None, WaiterList()
        # A driver keeps ``cpu_time``, ``quanta`` and its sink, which holds
        # no state; its bound step holds the source and the transforms.
        for runtime in self.pipelines:
            for driver in runtime.drivers:
                driver.source, driver.transforms, driver._waitable = None, [], []
                driver._step = None
        self.collect_output = self.on_finished = self.on_error = None
        self.sealed = True

    # ------------------------------------------------------------------
    # runtime information (task context, Figure 18)
    # ------------------------------------------------------------------
    def cpu_seconds(self) -> float:
        """Total virtual CPU time consumed by this task's drivers."""
        return sum(
            d.cpu_time for p in self.pipelines for d in p.drivers
        )

    def quanta(self) -> int:
        """Total driver quanta executed by this task."""
        return sum(d.quanta for p in self.pipelines for d in p.drivers)

    def peak_tracked_bytes(self) -> int:
        """Sum of peak tracked bytes across this task's operator state."""
        return sum(h.peak_bytes for h in self._memory_handles)
