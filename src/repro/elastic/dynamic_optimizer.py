"""The dynamic optimizer: classifies tuning requests and applies them
(paper Figure 8).

Given an accepted tuning request it determines which mechanism applies
and records the request marker (the red dashed lines of the evaluation
figures) and the state-transfer result:

* **intra-task** (Section 4.3, Figure 12) — change the number of drivers
  of the tunable pipelines in every task of a stage.  Increases spawn
  drivers directly from the task's global remote split set (no
  coordinator round trip per driver — the paper measures < 1 ms
  generation overhead); decreases inject end signals that ride the
  end-page relay game through the drivers' operator chains.
* **intra-stage** (Section 4.4, Figure 14) — add tasks, or shut the last
  ones down by end signals, through :mod:`repro.cluster.topology`.
* **DOP switching** (Section 4.5) for partitioned hash joins —
  :mod:`.dop_switching`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cluster.scheduler import Scheduler
from ..cluster.stage import StageExecution
from ..cluster.topology import attach_tasks, detach_tasks
from .dop_switching import switch_dop, watch_builds
from .tuning import TuningKind, TuningRequest, TuningResult

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution


def apply_tuning(
    scheduler: Scheduler, query: "QueryExecution", request: TuningRequest
) -> TuningResult:
    """Apply a request the tuner's check step accepted (so its target
    differs from the stage's current DOP)."""
    kernel = scheduler.kernel
    stage = query.stage(request.stage)
    result = TuningResult(request, accepted=True, issued_at=kernel.now)
    kernel.decisions.record(
        "tuning", request.kind.value, query_id=query.id, stage=stage.id,
        span=stage.trace_span, reason=request.describe(), target=request.target,
    )
    if request.kind is TuningKind.TASK_DOP:
        result.details["drivers"] = _set_task_dop(stage, request.target)
        result.completed_at = kernel.now
    elif stage.is_partitioned_join:
        switch_dop(scheduler, query, stage, request.target, result)
    else:
        current = stage.stage_dop
        if request.target > current:
            tasks = attach_tasks(scheduler, query, stage, request.target - current)
            watch_builds(query, stage, tasks)
            result.details["added"] = [str(t.task_id) for t in tasks]
        else:
            # The last tasks of the group go; at least one stays.
            tasks = stage.active_group[max(1, request.target):]
            detach_tasks(scheduler, query, stage, tasks)
            result.details["removed"] = [str(t.task_id) for t in tasks]
        result.completed_at = kernel.now
    return result


def _set_task_dop(stage: StageExecution, target: int) -> dict[str, int]:
    """Adjust every active task of ``stage`` to ``target`` drivers on its
    tunable pipelines.  Returns per-task driver deltas."""
    deltas: dict[str, int] = {}
    for task in stage.active_group:
        for runtime in task.pipelines:
            if not runtime.spec.tunable or runtime.finished:
                continue
            current = runtime.active_drivers
            if target > current:
                added = task.add_drivers(runtime.spec.id, target - current)
                deltas[f"{task.task_id}/p{runtime.spec.id}"] = added
            elif target < current:
                removed = task.remove_drivers(runtime.spec.id, current - target)
                deltas[f"{task.task_id}/p{runtime.spec.id}"] = -removed
    return deltas
