"""DOP switching for partitioned hash joins (paper Section 4.5, Figure 16b).

Changing the parallelism of a partitioned-join stage requires rebuilding
the distributed hash table.  Rather than re-balancing the existing one
(which would disrupt in-flight probes), the build side *rebuilds from the
upstream stage's intermediate data cache* into a brand-new task group:

1. a new task group of the target size is created and linked to the
   parent-stage tasks,
2. the build-side child stage's shuffle buffers switch to the new
   buffer-ID group and replay their page caches (the *shuffle* phase of
   Table 2), feeding the new hash tables (the *build* phase),
3. once every new hash table is ready, the probe-side child's shuffle
   buffers switch to the new group and the old group is closed with end
   signals — the probe continues on the new group without interruption.

The edges themselves are made by :mod:`repro.cluster.topology`; this
module orders the three steps and times them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..cluster.scheduler import Scheduler
from ..cluster.stage import StageExecution
from ..cluster.topology import (
    RPC_CREATE_TASK,
    RPC_UPDATE_LINK,
    link,
    regroup,
    start_after,
)
from ..errors import TuningRejected
from ..exec.task import Task
from .tuning import TuningResult

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution


def switch_dop(
    scheduler: Scheduler,
    query: "QueryExecution",
    stage: StageExecution,
    target: int,
    result: TuningResult,
) -> list[Task]:
    fragment = stage.fragment
    build_children = [query.stages[c] for c in fragment.build_children]
    probe_children = [
        query.stages[c]
        for c in fragment.children
        if c not in fragment.build_children
    ]
    for child in build_children:
        if not all(t.output_buffer.cache_enabled for t in child.tasks):
            raise TuningRejected(
                "DOP switching needs the intermediate data cache (Section 4.5); "
                "it is disabled on this engine",
                reason="no-cache",
            )

    old_group = list(stage.active_group)
    kernel = query.kernel
    issued_at = kernel.now

    # 1. Create the new task group, linked to the parents (downstream).
    stage.task_groups.append([])
    new_tasks = [scheduler.create_task(query, stage) for _ in range(target)]
    requests = target * RPC_CREATE_TASK
    # Read off the new group, which has no drivers yet: it starts at 1.
    task_dop = max(1, stage.task_dop)
    for parent_id in query.plan.parents_of(stage.id):
        for parent_task in query.stages[parent_id].active_group:
            for task in new_tasks:
                link(task, parent_task)
                requests += RPC_UPDATE_LINK

    # 2. Build side: switch the shuffle buffers to the new group and
    #    replay the intermediate data cache into the new hash tables.
    shuffle_pending = 0
    shuffle_done_at = [issued_at]

    def one_shuffle_drained() -> None:
        nonlocal shuffle_pending
        shuffle_pending -= 1
        shuffle_done_at[0] = max(shuffle_done_at[0], kernel.now)
        if shuffle_pending == 0:
            result.shuffle_seconds = shuffle_done_at[0] - issued_at

    def start_build_switch() -> None:
        nonlocal shuffle_pending
        for child in build_children:
            for upstream in child.tasks:
                regroup(upstream, new_tasks, replay_cache=True)
                shuffle_pending += 1
                upstream.output_buffer.when_drained(one_shuffle_drained)
        for task in new_tasks:
            task.start(task_dop)

    # 3. When every new hash table is ready, switch the probe side.
    bridges = [b for t in new_tasks for b in t.bridges]

    def maybe_finish() -> None:
        if not all(b.ready for b in bridges):
            return
        ready_at = kernel.now
        result.build_seconds = max(0.0, ready_at - issued_at - result.shuffle_seconds)
        for child in probe_children:
            for upstream in child.tasks:
                regroup(upstream, new_tasks, retire=old_group)
        scheduler.rpc.charge(
            RPC_UPDATE_LINK * max(1, len(probe_children)), query_id=query.id
        )
        result.completed_at = kernel.now

    def begin() -> None:
        start_build_switch()
        watch_builds(query, stage, new_tasks, then=maybe_finish)
        maybe_finish()

    start_after(scheduler, query, requests, begin)
    return new_tasks


# -- build-ready markers (the yellow dashed lines of Figures 24-26) ----------
def watch_builds(
    query: "QueryExecution",
    stage: StageExecution,
    tasks: list[Task],
    then: Callable[[], None] | None = None,
) -> None:
    """Record a build-ready marker as each new task's hash table is
    (re)built, then call ``then``."""

    def ready() -> None:
        _mark_build_ready(query, stage)
        if then is not None:
            then()

    for task in tasks:
        for bridge in task.bridges:
            if bridge.ready:
                _mark_build_ready(query, stage)
            else:
                bridge.on_ready.add(ready)


def _mark_build_ready(query: "QueryExecution", stage: StageExecution) -> None:
    # Bridge on_ready callbacks can fire after the query was cancelled
    # (the rebuild drains cleanly); a terminal query records nothing.
    if query.finished:
        return
    query.kernel.decisions.record(
        "build_ready", "ready", query_id=query.id, stage=stage.id,
        span=stage.trace_span,
    )
