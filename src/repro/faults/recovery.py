"""Failure recovery: node blacklisting, task respawn, query teardown.

Recovery model (DESIGN.md, "Fault model & recovery"):

* **Crashes are quantum-atomic.**  Driver quanta holding a core when the
  node dies still commit (their output lands in the task output spool on
  durable disaggregated storage); queued quanta are dropped.  Recovery of
  a crashed task therefore waits until its in-flight quanta drain before
  sealing or discarding its spool.

* **Recoverability taxonomy** for a crashed task:

  - *R1* — already finished: its spooled output survives, nothing to do.
  - *R3 (resume)* — a stateless scan task (filter/project over a split
    feed, output straight to the task output buffer): the spool is kept
    and sealed, unread split remainders go back to the feed, and a fresh
    task continues the scan.  Resumable at any time.
  - *R2 (restart)* — any other task whose output was never externalized
    (``ever_fetched`` false; for the root stage: no result page collected):
    its spool is discarded, its inputs are replayed from the upstream
    buffers' lineage logs, and a replacement recomputes from scratch.
  - otherwise — **unrecoverable**: the query fails with a structured
    :class:`~repro.errors.QueryFailedError` carrying the fault history.

* **Exactly-once replay** is provided by the output buffers:
  ``SharedOutputBuffer`` requeues a dead consumer's taken pages into the
  shared queue; ``ShuffleOutputBuffer`` replays its per-consumer push log
  and redirects in-flight shuffle work to the replacement's buffer id at
  the dead task's exact hash-partition position;
  ``BroadcastOutputBuffer`` replays its page cache.

* **Respawn wiring** is the intra-stage 3-step task-addition path
  (paper Section 4.4, Figure 14) itself —
  :func:`repro.cluster.topology.attach_tasks` with ``replaces=`` the dead
  task: create the task, hand its address to the parent-stage tasks, set
  the child-stage addresses on it, all charged to the query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cluster.topology import attach_tasks
from ..errors import QueryFailedError, SchedulingError
from ..exec.operators.sources import ScanSource

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import Coordinator, QueryExecution
    from ..cluster.node import Node
    from ..cluster.stage import StageExecution
    from ..exec.task import Task

#: Virtual seconds between a node/task death and the coordinator noticing
#: it (heartbeat interval).
DETECTION_DELAY = 0.05
#: How many times the tasks of one stage may be respawned before a
#: further crash is declared unrecoverable.
TASK_RETRY_BUDGET = 3


class RecoveryManager:
    def __init__(self, coordinator: "Coordinator"):
        self.coordinator = coordinator
        self.kernel = coordinator.kernel
        self.decisions = self.kernel.decisions

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def node_down(self, node: "Node") -> None:
        """Kill a node now; the coordinator notices one heartbeat later."""
        if not node.alive:
            return
        node.fail()
        self.decisions.record("fault", "node_failed", node=node.name)
        if node.role == "coordinator":
            self.kernel.schedule(DETECTION_DELAY, lambda: self._coordinator_down())
            return
        self.kernel.schedule(DETECTION_DELAY, lambda: self._handle_node_down(node))

    def task_down(
        self, query: "QueryExecution", stage: "StageExecution", task: "Task"
    ) -> None:
        """Crash one task (fault injection, which records it) without
        killing its node."""
        if task.finished or task.crashed:
            return
        task.crash(reason="injected task crash")
        self.kernel.schedule(
            DETECTION_DELAY,
            lambda: task.when_quanta_drained(
                lambda: self.recover_task(query, stage, task)
            ),
        )

    # ------------------------------------------------------------------
    def _coordinator_down(self) -> None:
        for query in list(self.coordinator.running.values()):
            self.decisions.record(
                "fault", "node_crash", query_id=query.id, node="coordinator",
                reason="coordinator",
            )
            self._fail(query, "coordinator node crashed")

    def _handle_node_down(self, node: "Node") -> None:
        """Detection fired: blacklisting already happened via ``alive``;
        now crash every task on the dead node and recover per task.

        Recovery runs top-down (consumers before producers) in the common
        immediate case; the wiring is order-independent regardless, thanks
        to shuffle redirects and ``Task.replaced_by``."""
        for query in list(self.coordinator.running.values()):
            dead: list[tuple["StageExecution", "Task"]] = []
            for stage in query.stages.values():  # insertion = bottom-up
                for task in stage.tasks:
                    if task.node is node and not task.finished:
                        task.crash(reason=f"{node.name} down")
                        dead.append((stage, task))
            if not dead:
                continue
            self.decisions.record(
                "fault", "node_down", query_id=query.id, node=node.name,
                reason=f"{node.name} ({len(dead)} tasks lost)", tasks_lost=len(dead),
            )
            for stage, task in reversed(dead):
                task.when_quanta_drained(
                    lambda q=query, s=stage, t=task: self.recover_task(q, s, t)
                )

    # ------------------------------------------------------------------
    # per-task recovery
    # ------------------------------------------------------------------
    def recover_task(
        self, query: "QueryExecution", stage: "StageExecution", task: "Task"
    ) -> None:
        """Classify a crashed task and respawn it (or fail the query)."""
        if query.finished or task.recovered or not task.crashed:
            return
        task.recovered = True
        verdict, reason = self._classify(query, stage, task)
        if verdict == "unrecoverable":
            self.decisions.record(
                "recovery", "unrecoverable", query_id=query.id, stage=stage.id,
                reason=f"{task.task_id}: {reason}",
            )
            self._fail(
                query, f"task {task.task_id} is unrecoverable: {reason}"
            )
            return
        try:
            self._respawn(query, stage, task, verdict)
        except SchedulingError as exc:
            self.decisions.record(
                "recovery", "respawn_failed", query_id=query.id, stage=stage.id,
                reason=str(exc),
            )
            self._fail(query, f"cannot respawn {task.task_id}: {exc}")

    def _classify(
        self, query: "QueryExecution", stage: "StageExecution", task: "Task"
    ) -> tuple[str, str]:
        if len(stage.task_groups) > 1 and task not in stage.task_groups[-1]:
            return "unrecoverable", "died mid DOP-switch in a draining group"
        if stage.retries >= TASK_RETRY_BUDGET:
            return (
                "unrecoverable",
                f"stage {stage.id} retry budget ({TASK_RETRY_BUDGET}) exhausted",
            )
        if task.stateless_scan:
            return "resume", "stateless scan"
        externalized = (
            bool(query.result_pages)
            if stage.id == 0
            else task.output_buffer.ever_fetched
        )
        if externalized:
            return "unrecoverable", "output already externalized"
        return "restart", "output never externalized"

    # ------------------------------------------------------------------
    def _respawn(
        self,
        query: "QueryExecution",
        stage: "StageExecution",
        old: "Task",
        mode: str,
    ) -> None:
        # Return split-feed work held by the dead task.
        for runtime in old.pipelines:
            for driver in runtime.drivers:
                source = driver.source
                if isinstance(source, ScanSource):
                    if mode == "resume":
                        source.release_unfinished()
                    else:
                        source.restart_release()

        # Seal or discard the dead task's spool.
        if mode == "resume":
            old.output_buffer.task_finished()
        else:
            old.output_buffer.abort()
        stage.retries += 1

        (new,) = attach_tasks(
            self.coordinator.scheduler, query, stage, replaces=old
        )
        self.decisions.record(
            "recovery", "respawn", query_id=query.id, stage=stage.id,
            node=new.node.name, mode=mode, retries=stage.retries,
            reason=f"{old.task_id} -> {new.task_id} on {new.node.name} ({mode})",
        )

    # ------------------------------------------------------------------
    def _fail(self, query: "QueryExecution", message: str) -> None:
        query.fail(QueryFailedError(message, query_id=query.id))

    # ------------------------------------------------------------------
    def gauges(self) -> dict:
        """``recovery.*`` in ``engine.metrics``, counted from the decision
        log; ``fault_report()`` counts one query's decisions alike."""
        log = self.decisions
        respawned = log.count("recovery", "respawn")
        resumed = log.tally("recovery", "resume")
        return {
            "node_failures": log.count("fault", "node_failed"),
            # ``tasks_lost`` is an input of ``node_down`` alone.
            "tasks_crashed": log.count("inject", "task_crash") + log.tally("fault"),
            "tasks_respawned": respawned,
            "tasks_resumed": resumed,
            "tasks_restarted": respawned - resumed,
            # Recovery fails a query right after recording one of these.
            "queries_failed": log.count("recovery", "unrecoverable")
            + log.count("recovery", "respawn_failed")
            + log.count("fault", "node_crash"),
        }
