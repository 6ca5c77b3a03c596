"""Drivers: physical operator sequences, the unit of scheduling.

A driver executes quanta on its node's simulated cores: each quantum takes
one page from the source, pushes it through the transform chain, and
delivers the outputs to the sink.  Drivers block on empty sources, full
sinks, and not-yet-ready join bridges, and are woken through waiter lists.

Scheduling follows Presto's multi-level feedback queue: a driver's
priority level grows with its accumulated CPU time, so fresh drivers
(e.g. ones just created by an intra-task DOP increase) get cores quickly —
this is why the paper measures sub-millisecond driver spawn overhead and
throughput steps within ~110 ms of a tuning action.

A quantum is one frame (DESIGN.md §10.1): when a driver starts it binds
the step for its shape (:func:`_bind_step`) — its source's ``poll``, the
source and sink row costs, the output buffer it may block on, its
transform count, and whether it is traced or profiled.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import TYPE_CHECKING

from ..pages import Page
from .operators.base import SinkOperator, SourceOperator, TransformOperator

if TYPE_CHECKING:  # pragma: no cover
    from .task import Task

#: Accumulated-CPU thresholds for the multi-level feedback queue.
_MLFQ_LEVELS = (0.1, 1.0, 10.0)


def _noop() -> None:
    """Shared no-op commit (a trapped or crashed quantum parks nothing)."""


class DriverState(enum.Enum):
    CREATED = "created"
    QUEUED = "queued"     # waiting for a core
    RUNNING = "running"   # holding a core for the current quantum
    BLOCKED = "blocked"   # waiting on a buffer/bridge condition
    FINISHED = "finished"


class Driver:
    def __init__(
        self,
        task: "Task",
        pipeline_id: int,
        driver_id: int,
        source: SourceOperator,
        transforms: list[TransformOperator],
        sink: SinkOperator,
    ):
        self.task = task
        self.pipeline_id = pipeline_id
        self.driver_id = driver_id
        self.source = source
        self.transforms = transforms
        self.sink = sink
        self.state = DriverState.CREATED
        self.cpu_time = 0.0
        self.quanta = 0
        #: Set through ``Task.remove_drivers`` / ``Task.request_end`` to
        #: shut this driver down (end signal, Section 4.3); the next
        #: quantum injects an end page.
        self.end_requested = False
        self._end_seen = False
        # Hot-path caches: the tracer, its flags, and the per-quantum
        # overhead are fixed for the engine's lifetime, so look them up
        # once per driver instead of once per quantum/page.
        self._tracer = task.kernel.tracer
        self._traced = self._tracer.enabled
        self._profiler = self._tracer.profiler if self._tracer.profiling else None
        # What every traced quantum would otherwise format or chase again.
        self._span_name = f"p{pipeline_id}.d{driver_id}"
        self._node_name = task.node.name
        self._op_names = [type(op).__name__ for op in transforms]
        #: What the commit of the quantum in flight delivers.  One slot:
        #: only a blocked quantum overlaps a successor, and a blocked
        #: quantum commits through ``Task.quantum_done`` with nothing to
        #: deliver, so at most one quantum in flight ever parks outputs.
        self._outputs: list[Page] = []
        self._commit = self._commit_quantum
        # Only operators that can ever block (join probes) are polled for
        # readiness each quantum; for most pipelines this list is empty.
        self._waitable = [op for op in transforms if op.may_wait]
        #: The task output buffer a full sink blocks on (None: never).
        self._output = sink.buffer
        #: MLFQ level, recomputed only when ``cpu_time`` reaches the next
        #: threshold.
        self._level = 0.0
        self._next_level_at = _MLFQ_LEVELS[0]

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Bind the step for this driver's shape, then queue for a core."""
        self._cpu = self.task.node.cpu
        self._step = _bind_step(self)
        self._enqueue()

    def request_end(self) -> None:
        self.end_requested = True
        if self.state is DriverState.BLOCKED:
            self._enqueue()

    @property
    def finished(self) -> bool:
        return self.state is DriverState.FINISHED

    def _enqueue(self) -> None:
        if self.state in (DriverState.QUEUED, DriverState.FINISHED):
            return
        self.state = DriverState.QUEUED
        self._cpu.acquire(self._step, self._level)

    def _wake(self) -> None:
        if self.state is DriverState.BLOCKED:
            self.state = DriverState.QUEUED
            self._cpu.acquire(self._step, self._level)

    # -- quantum execution ----------------------------------------------------
    def _relevel(self) -> None:
        level = bisect_right(_MLFQ_LEVELS, self.cpu_time)
        self._level = float(level)
        self._next_level_at = (
            _MLFQ_LEVELS[level] if level < len(_MLFQ_LEVELS) else float("inf")
        )

    def _commit_quantum(self) -> None:
        """Fires when the quantum that parked ``_outputs`` releases its
        core: deliver, then finish or queue for the next quantum (on an
        idle core, ``CpuPool.acquire`` runs it at once), then count the
        quantum done — ``Task.quantum_done``, inline."""
        task = self.task
        try:
            outputs = self._outputs
            if outputs:
                self._outputs = []
                self.sink.deliver(outputs)
            if self._end_seen:
                self._finish()
            else:
                self.state = DriverState.QUEUED
                self._cpu.acquire(self._step, self._level)
        except Exception as exc:  # noqa: BLE001
            self._trap(exc)
        finally:
            task.inflight_quanta -= 1
            if not task.inflight_quanta and task.drain_callbacks:
                task.drained()

    def _trap(self, exc: Exception) -> tuple[float, callable]:
        self.state = DriverState.FINISHED
        self.task.report_error(exc)
        return 0.0, _noop

    def _run_chain(
        self, page: Page, op_costs: list | None = None
    ) -> tuple[list[Page], float, bool]:
        """Push ``page`` (possibly an end page) through the transforms.

        ``op_costs`` (tracing only) collects ``(operator, virtual_cost)``
        per transform; the accumulation of ``cost`` itself is unchanged so
        virtual timings are identical with tracing on or off."""
        if page.is_end:
            self._end_seen = True
        profiler = self._profiler
        pages = [page]
        cost = 0.0
        for index, op in enumerate(self.transforms):
            next_pages: list[Page] = []
            op_cost = 0.0
            for p in pages:
                if profiler is None:
                    outs, c = op.process(p)
                else:
                    task = self.task
                    outs, c = profiler.process(
                        op, p, task.query_id, task.task_id.stage, self._op_names[index]
                    )
                cost += c
                op_cost += c
                next_pages.extend(outs)
            if op_costs is not None:
                op_costs.append((self._op_names[index], op_cost))
            pages = next_pages
            if op.done_early and not self._end_seen:
                # LIMIT satisfied: the end page follows the limit's last
                # pages down the rest of the chain like any other end; the
                # source is not drained.
                self._end_seen = True
                pages.append(Page.end())
        data_pages = [p for p in pages if not p.is_end]
        # An end page always traverses the whole remaining chain within one
        # quantum (stateful operators flush, then relay), so seeing the end
        # means the relay completed and the driver is done.
        finished = self._end_seen
        return data_pages, cost, finished

    def _finish(self) -> None:
        self.state = DriverState.FINISHED
        shutdown = getattr(self.source, "shutdown", None)
        if shutdown is not None:
            shutdown()
        self.sink.driver_finished()
        self.task.driver_finished(self)


def _bind_step(d: "Driver"):
    """The step of ``d``'s shape: a closure that runs one quantum with a
    core granted and returns ``(cost, commit)``.

    What the shape fixes is bound here once, as ``sql/compiler`` binds an
    expression: the source's ``poll`` and row cost (scan, exchange or
    local exchange), the sink's row cost and the output buffer a full
    sink blocks on, the transform count (none and one inline; longer
    chains, and every profiled driver, through ``Driver._run_chain``),
    and the mode.  ``step.shape`` names the chain and mode bound.
    Crashed tasks (fault injection) never execute another quantum; an
    operator exception is trapped and escalated to the task instead of
    unwinding the event loop.
    """
    task, cost_model = d.task, d.task.cost
    poll, source_row_cost, sink_row_cost = d.source.poll, d.source.row_cost, d.sink.row_cost
    multiplier, overhead = cost_model.cpu_multiplier, cost_model.quantum_overhead
    waitable, output, traced = d._waitable, d._output, d._traced
    mode = "profiled" if d._profiler is not None else "traced" if traced else "plain"
    chained = mode == "profiled" or len(d.transforms) > 1
    op = None if chained or not d.transforms else d.transforms[0]
    op_name = d._op_names[0] if op is not None else None
    wake, release, commit = d._wake, d.task.quantum_done, d._commit

    def step() -> tuple[float, callable]:
        if task.crashed:
            d.state = DriverState.FINISHED
            return 0.0, _noop
        try:
            d.state = DriverState.RUNNING
            d.quanta += 1
            if d.end_requested and not d._end_seen:
                page, cost = Page.end(signal="shutdown"), 0.0
            else:
                # Block on a not-ready transform (join probe before build
                # done), a full output buffer, or an empty source.
                waiters = None
                for waiting in waitable:
                    waiters = waiting.waits_on()
                    if waiters is not None:
                        break
                else:
                    if output is not None and output.is_full:
                        waiters = output.not_full
                    else:
                        page = poll()
                        if page is None:
                            waiters = d.source.waiters()
                if waiters is not None:
                    # A blocked quantum holds its core for the overhead and
                    # commits nothing but its release.
                    d.state = DriverState.BLOCKED
                    waiters.add(wake)
                    task.inflight_quanta += 1
                    return overhead, release
                cost = page.num_rows * source_row_cost * multiplier
            if chained:
                op_costs = [] if traced else None
                outputs, chain_cost, _finished = d._run_chain(page, op_costs)
            else:
                if page.is_end:
                    d._end_seen = True
                if op is None:
                    outputs, chain_cost = [page], 0.0
                else:
                    outputs, chain_cost = op.process(page)
                    if op.done_early:
                        d._end_seen = True
                if d._end_seen:
                    # The end is the commit's to act on, not the sink's.
                    outputs = [p for p in outputs if not p.is_end]
            cost += chain_cost + overhead
            rows = 0
            for out in outputs:
                rows += out.num_rows
            cost += rows * sink_row_cost * multiplier
            d.cpu_time += cost
            if d.cpu_time >= d._next_level_at:
                d._relevel()
            if traced:
                if not chained:
                    op_costs = () if op is None else ((op_name, chain_cost),)
                now = task.kernel.now
                d._tracer.quantum(
                    d._span_name, now, cost, task.trace_span, d._node_name, rows, op_costs
                )
        except Exception as exc:  # noqa: BLE001 - escalate to the query
            return d._trap(exc)
        d._outputs = outputs
        task.inflight_quanta += 1
        return cost, commit

    step.shape = ("chain" if chained else "one" if op else "bare", mode)
    return step
