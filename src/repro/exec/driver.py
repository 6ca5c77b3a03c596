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
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_right
from collections import deque
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
        self._quantum_overhead = task.cost.quantum_overhead
        # What every traced quantum would otherwise format or chase again.
        self._span_name = f"p{pipeline_id}.d{driver_id}"
        self._node_name = task.node.name
        self._op_names = [type(op).__name__ for op in transforms]
        # No closure per quantum: the pool gets these two bound methods,
        # and what a quantum's commit needs parks in ``_parked``.  A FIFO,
        # not a slot: a blocked quantum still holds its core for the
        # quantum overhead while a wake-up has already been granted the
        # next one, so one driver can have several quanta in flight.  They
        # complete in grant order (only blocked quanta overlap a successor,
        # and no quantum costs less than theirs).
        self._run = self._run_quantum
        self._commit = self._commit_quantum
        self._parked: deque[tuple[list[Page], bool] | None] = deque()
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
        self.task.node.cpu.acquire(self._run, priority=self._level)

    def _block_on(self, waiters) -> tuple[float, None]:
        """A blocked quantum holds its core for the overhead and commits
        nothing."""
        self.state = DriverState.BLOCKED
        waiters.add(self._wake)
        return self._quantum_overhead, None

    def _wake(self) -> None:
        if self.state is DriverState.BLOCKED:
            self._enqueue()

    # -- quantum execution ----------------------------------------------------
    def _run_quantum(self) -> tuple[float, callable]:
        """Runs with a core granted; returns (cost, commit).

        Crashed tasks (fault injection) never execute another quantum; an
        operator exception is trapped and escalated to the task instead of
        unwinding the event loop."""
        task = self.task
        if task.crashed:
            self.state = DriverState.FINISHED
            return 0.0, _noop
        try:
            cost, parked = self._quantum()
        except Exception as exc:  # noqa: BLE001 - escalate to the query
            return self._trap(exc)
        task.inflight_quanta += 1
        self._parked.append(parked)
        return cost, self._commit

    def _commit_quantum(self) -> None:
        """Fires when the oldest in-flight quantum releases its core."""
        parked = self._parked.popleft()
        try:
            if parked is not None:
                outputs, finished = parked
                if outputs:
                    self.sink.deliver(outputs)
                if finished:
                    self._finish()
                else:
                    self._enqueue()
        except Exception as exc:  # noqa: BLE001
            self._trap(exc)
        finally:
            self.task.quantum_done()

    def _trap(self, exc: Exception) -> tuple[float, callable]:
        self.state = DriverState.FINISHED
        self.task.report_error(exc)
        return 0.0, _noop

    def _quantum(self) -> tuple[float, tuple[list[Page], bool] | None]:
        """One quantum: (cost, what its commit delivers; None if blocked)."""
        self.state = DriverState.RUNNING
        self.quanta += 1

        if self.end_requested and not self._end_seen:
            page: Page | None = Page.end(signal="shutdown")
            cost = 0.0
        else:
            # Block on a not-ready transform (join probe before build done).
            for op in self._waitable:
                waiters = op.waits_on()
                if waiters is not None:
                    return self._block_on(waiters)
            output = self._output
            if output is not None and output.is_full:
                return self._block_on(output.not_full)
            page, cost = self.source.poll()
            if page is None:
                return self._block_on(self.source.waiters())

        op_costs = [] if self._traced else None
        outputs, chain_cost, finished = self._run_chain(page, op_costs)
        cost += chain_cost + self._quantum_overhead
        cost += self.sink.cost_of(outputs)
        self.cpu_time += cost
        if self.cpu_time >= self._next_level_at:
            level = bisect_right(_MLFQ_LEVELS, self.cpu_time)
            self._level = float(level)
            self._next_level_at = (
                _MLFQ_LEVELS[level] if level < len(_MLFQ_LEVELS) else float("inf")
            )

        if self._traced:
            tracer = self._tracer
            # The quantum occupies a core for [now, now + cost]; record it
            # as a closed span now that the cost is known.  Operator
            # sub-spans stack their virtual costs sequentially inside it.
            now = self.task.kernel.now
            quantum_span = tracer.complete(
                "quantum",
                self._span_name,
                now,
                now + cost,
                parent=self.task.trace_span,
                node=self._node_name,
                rows=sum(p.num_rows for p in outputs),
            )
            if op_costs:
                at = now
                for op_name, op_cost in op_costs:
                    tracer.complete(
                        "operator", op_name, at, at + op_cost,
                        parent=quantum_span, node=self._node_name,
                    )
                    at += op_cost

        return cost, (outputs, finished)

    def _run_chain(
        self, page: Page, op_costs: list | None = None
    ) -> tuple[list[Page], float, bool]:
        """Push ``page`` (possibly an end page) through the transforms.

        ``op_costs`` (tracing only) collects ``(operator, virtual_cost)``
        per transform; the accumulation of ``cost`` itself is unchanged so
        virtual timings are identical with tracing on or off."""
        if page.is_end:
            self._end_seen = True
        transforms = self.transforms
        profiler = self._profiler
        if not transforms:
            return ([] if page.is_end else [page]), 0.0, self._end_seen
        if len(transforms) == 1 and profiler is None:
            # The loop below for one operator, without its page lists: a
            # LIMIT's end page would be dropped from the outputs at once.
            op = transforms[0]
            outputs, cost = op.process(page)
            if op_costs is not None:
                op_costs.append((self._op_names[0], cost))
            if op.done_early:
                self._end_seen = True
            if self._end_seen:
                outputs = [p for p in outputs if not p.is_end]
            return outputs, cost, self._end_seen
        pages = [page]
        cost = 0.0
        for index, op in enumerate(transforms):
            next_pages: list[Page] = []
            op_cost = 0.0
            for p in pages:
                if profiler is not None:
                    wall_start = time.perf_counter_ns()
                    outs, c = op.process(p)
                    handle = getattr(op, "memory", None)
                    if handle is None:
                        bridge = getattr(op, "bridge", None)
                        handle = getattr(bridge, "memory", None)
                    profiler.record(
                        self.task.query_id,
                        self.task.task_id.stage,
                        self._op_names[index],
                        time.perf_counter_ns() - wall_start,
                        p.num_rows,
                        peak_bytes=handle.peak_bytes if handle is not None else 0,
                    )
                else:
                    outs, c = op.process(p)
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
