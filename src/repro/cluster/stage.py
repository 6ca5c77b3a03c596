"""Stage execution state: the tasks of one fragment, plus group tracking
for partitioned-join DOP switching."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..buffers import OutputMode
from ..plan.physical import PlanFragment
from ..plan.pipelines import FragmentLayout, fragment_pipelines
from ..exec.splits import SplitFeed
from ..exec.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from .coordinator import QueryExecution


@dataclass(slots=True)
class StageSample:
    """One reading of a stage's runtime counters (``StageExecution.sample``)."""

    rows_out: int
    rows_received: int
    exchange_turn_up: int
    stage_dop: int
    task_dop: int
    finished: bool
    scan_rows_remaining: int | None
    scan_rows_total: int | None
    max_build_seconds: float


class StageExecution:
    def __init__(self, query: "QueryExecution", fragment: PlanFragment):
        self.query = query
        self.fragment = fragment
        self.layout: FragmentLayout = fragment_pipelines(fragment)
        self.tasks: list[Task] = []
        #: Task groups for DOP switching (Section 4.5): the last group is
        #: the active one; earlier groups are draining/closed.
        self.task_groups: list[list[Task]] = [[]]
        self.split_feed: SplitFeed | None = None
        self._next_seq = 0
        #: Failure recovery: how many times tasks of this stage have been
        #: respawned after a crash (bounded by ``TASK_RETRY_BUDGET``).
        self.retries = 0
        #: ``(len(tasks), sample)`` once the stage can no longer change.
        self._final: tuple[int, StageSample] | None = None
        kind = "scan" if fragment.is_source else "intermediate"
        self.trace_span = query.kernel.tracer.begin(
            "stage",
            f"stage{fragment.id}",
            parent=query.trace_span,
            node="coordinator",
            stage_kind=kind,
            table=fragment.source_table,
        )

    # -- identity -----------------------------------------------------------
    @property
    def id(self) -> int:
        return self.fragment.id

    def next_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # -- task views ----------------------------------------------------------
    @property
    def active_tasks(self) -> list[Task]:
        return [t for t in self.tasks if not t.finished]

    @property
    def active_group(self) -> list[Task]:
        return [t for t in self.task_groups[-1] if not t.finished]

    @property
    def stage_dop(self) -> int:
        return len(self.active_group) if self.tasks else 0

    @property
    def task_dop(self) -> int:
        active = self.active_group
        if not active:
            return 0
        return max(t.tunable_pipeline.active_drivers for t in active)

    @property
    def finished(self) -> bool:
        return bool(self.tasks) and all(t.finished for t in self.tasks)

    @property
    def started(self) -> bool:
        return bool(self.tasks)

    # -- runtime metrics -----------------------------------------------------
    def rows_out(self) -> int:
        return self.sample().rows_out

    def bytes_out(self) -> int:
        return sum(t.output_buffer.bytes_out for t in self.tasks)

    def sample(self) -> StageSample:
        """Everything the periodic reader (``obs.throughput.Sampler``)
        needs, from one pass over the tasks and no per-task allocation.

        Once the stage can no longer change — every task finished without
        crashing (a crashed task's in-flight quanta and fetches still
        land), every hash table built, and not the root stage (its rows
        are the query's result rows) — the reading is kept and returned
        until a task is added."""
        tasks = self.tasks
        final = self._final
        if final is not None and final[0] == len(tasks):
            return final[1]
        # ``active_group`` without building it: a task joins ``tasks`` and
        # the newest group together (``Scheduler.create_task``), so that
        # group is a suffix of ``tasks``.
        group_start = len(tasks) - len(self.task_groups[-1])
        rows_out = rows_received = turn_up = stage_dop = task_dop = 0
        build_seconds = 0.0
        finished = bool(tasks)
        settled = finished and self.fragment.id != 0
        for index, task in enumerate(tasks):
            rows_out += task.output_buffer.rows_out
            for client in task.exchange_clients.values():
                rows_received += client.rows_received
                turn_up += client.buffer.turn_up_counter
            for bridge in task.bridges:
                seconds = bridge.build_seconds
                if seconds > build_seconds:
                    build_seconds = seconds
                if bridge.ready_at is None:
                    settled = False
            if not task.finished:
                finished = settled = False
                if index >= group_start:
                    stage_dop += 1
                    drivers = task.tunable_pipeline.active_drivers
                    if drivers > task_dop:
                        task_dop = drivers
            elif task.crashed:
                settled = False
        feed = self.split_feed
        sample = StageSample(
            rows_out=self.query.result_rows if self.fragment.id == 0 else rows_out,
            rows_received=rows_received,
            exchange_turn_up=turn_up,
            stage_dop=stage_dop,
            task_dop=task_dop,
            finished=finished,
            scan_rows_remaining=feed.rows_remaining if feed else None,
            scan_rows_total=feed.total_rows if feed else None,
            max_build_seconds=build_seconds,
        )
        if settled:
            self._final = (len(tasks), sample)
        return sample

    def max_build_seconds(self) -> float:
        """Stage T_build = max over its tasks (paper Section 5.2)."""
        return self.sample().max_build_seconds

    def cpu_seconds(self) -> float:
        """Virtual CPU seconds burnt by this stage across all tasks."""
        return sum(t.cpu_seconds() for t in self.tasks)

    def quanta(self) -> int:
        return sum(t.quanta() for t in self.tasks)

    def peak_tracked_bytes(self) -> int:
        """Peak tracked operator-state bytes, summed over tasks."""
        return sum(t.peak_tracked_bytes() for t in self.tasks)

    def time_window(self) -> tuple[float, float] | None:
        """(first task created, last task finished), query-relative ready
        for demand profiles; None while any task is still running."""
        if not self.tasks:
            return None
        ends = [t.finished_at for t in self.tasks]
        if any(e is None for e in ends):
            return None
        start = min(t.created_at for t in self.tasks)
        return (start - self.query.submitted_at, max(ends) - self.query.submitted_at)

    def has_join(self) -> bool:
        return bool(self.layout.bridges)

    @property
    def is_partitioned_join(self) -> bool:
        return any(
            b.join.distribution == "partitioned" for b in self.layout.bridges
        )

    def scan_progress(self) -> float | None:
        if self.split_feed is None:
            return None
        return self.split_feed.progress

    def describe(self) -> str:
        kind = "scan" if self.fragment.is_source else "intermediate"
        return (
            f"stage {self.id} ({kind}, dop={self.stage_dop}, "
            f"task_dop={self.task_dop}, rows_out={self.rows_out()})"
        )
