"""Task topology: the one place a running query's task graph changes.

The paper's intra-stage mechanism (Section 4.4, Figure 14) adds a task in
three steps — (1) create it, (2) hand its address to the parent-stage
tasks, (3) set the child-stage task addresses on it — and removes one by
end signals: the child stages' output buffers close the victim's buffer
id, end pages relay through it, the parents retire its address, and the
task is destroyed.  Everything that edits edges is written here once:

* :func:`link` — one producer → consumer edge;
* :func:`connect_stages` — all edges of a freshly scheduled query;
* :func:`attach_tasks` — steps 1–3 at runtime, for AP, for a drain that
  moves a whole scan, and (``replaces=``) for crash respawn, where the
  new task takes the dead one's buffer id, partition slot and replay;
* :func:`detach_tasks` — end-signal removal, for RP, arbiter revocation
  and node drain;
* :func:`regroup` — a hash producer's buffer-ID group moves to a new
  task group (DOP switching, Section 4.5).

Two rules live here and nowhere else.  A stage fed by hash-partitioned
exchanges changes membership only through :func:`regroup` or a
slot-preserving replacement: adding a plain consumer would receive no
partition, and end-signalling a group member makes the shuffle drop that
partition's rows.  And every control-plane request is charged to its
query (:func:`start_after`), whose deferred action is skipped once the
query is over.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..buffers import OutputMode
from ..errors import TuningRejected
from ..exec.splits import RemoteSplit
from ..exec.task import Task
from .stage import StageExecution

if TYPE_CHECKING:  # pragma: no cover
    from .coordinator import QueryExecution
    from .scheduler import Scheduler

#: Control-plane request counts for scheduling actions.
RPC_CREATE_TASK = 3
RPC_UPDATE_LINK = 1


def _seqs(tasks: Sequence[Task]) -> list[int]:
    """Buffer IDs equal downstream task sequence numbers, as in Presto."""
    return [t.task_id.seq for t in tasks]


def link(producer: Task, consumer: Task) -> None:
    """One edge: open the consumer's buffer id on the producer's output
    and add the producer to the consumer's remote split set."""
    seq = consumer.task_id.seq
    producer.output_buffer.add_consumer(seq)
    consumer.add_upstream(producer.fragment.id, RemoteSplit(producer, seq))


def start_after(
    scheduler: "Scheduler",
    query: "QueryExecution",
    requests: int,
    fn: Callable[[], None],
) -> None:
    """Charge ``requests`` to ``query`` and run ``fn`` when they complete.
    The query may have finished, failed or been cancelled while they were
    in flight; starting drivers for it then would run work nobody
    collects (``_terminate`` has already torn the unstarted tasks down)."""

    def run() -> None:
        if not query.finished:
            fn()

    scheduler.rpc.after_requests(requests, run, query_id=query.id)


def _reads_hash_input(query: "QueryExecution", stage: StageExecution) -> bool:
    """True when the stage's active tasks *are* a buffer-ID group."""
    return any(
        query.stages[c].fragment.output.mode is OutputMode.HASH
        for c in stage.fragment.children
    )


# -- initial scheduling -------------------------------------------------------
def connect_stages(query: "QueryExecution") -> int:
    """Wire every child task to every parent task of a query whose tasks
    were all just created.  Returns the request count: one per producer
    (its consumer set) plus one per edge."""
    requests = 0
    for parent in query.stages.values():
        consumers = parent.active_group
        for child_id in parent.fragment.children:
            child = query.stages[child_id]
            for producer in child.active_tasks:
                if child.fragment.output.mode is OutputMode.HASH:
                    producer.output_buffer.set_group(_seqs(consumers))
                requests += RPC_UPDATE_LINK
                for consumer in consumers:
                    link(producer, consumer)
                    requests += RPC_UPDATE_LINK
    return requests


# -- adding tasks -------------------------------------------------------------
def attach_tasks(
    scheduler: "Scheduler",
    query: "QueryExecution",
    stage: StageExecution,
    count: int = 1,
    replaces: Task | None = None,
) -> list[Task]:
    """Figure 14 steps 1–3 for ``count`` new tasks, started together once
    their requests complete (one per created task ×3, per edge, and per
    buffer-ID group installed).

    ``replaces`` is a crashed task of ``stage`` (``count`` stays 1): the
    new task registers under each producer in its place — shared buffers
    requeue what it had taken, shuffle buffers replay its partition at
    the same slot — and, as a hash producer, keeps its group order.
    """
    if replaces is None and _reads_hash_input(query, stage):
        raise TuningRejected(
            f"stage {stage.id} reads hash-partitioned input; use DOP switching",
            reason="needs-switch",
        )
    task_dop = max(1, stage.task_dop)
    parents = [query.stages[p] for p in query.plan.parents_of(stage.id)]
    tasks: list[Task] = []
    requests = 0
    for _ in range(count):
        task = scheduler.create_task(query, stage)
        tasks.append(task)
        requests += RPC_CREATE_TASK

        # Step 2: give the new task's address to the parent-stage tasks.
        if parents and stage.fragment.output.mode is OutputMode.HASH:
            task.output_buffer.set_group(_consumer_group(parents[0], replaces))
            requests += RPC_UPDATE_LINK
        for parent in parents:
            for consumer in parent.active_group:
                link(task, consumer)
                requests += RPC_UPDATE_LINK

        # Step 3: set the child-stage task addresses on the new task —
        # finished ones too: their broadcast caches replay the whole
        # build side to a late joiner.
        for child_id in stage.fragment.children:
            for producer in query.stages[child_id].tasks:
                if replaces is not None:
                    if _spool_lost(producer):
                        continue  # its own respawn will link to us
                    producer.output_buffer.requeue_for_retry(
                        replaces.task_id.seq, task.task_id.seq
                    )
                link(producer, task)
                requests += RPC_UPDATE_LINK
    if replaces is not None:
        replaces.replaced_by = tasks[0]

    def start() -> None:
        for task in tasks:
            task.start(task_dop)

    start_after(scheduler, query, requests, start)
    return tasks


def _consumer_group(parent: StageExecution, replaces: Task | None) -> list[int]:
    """The buffer-ID group a new hash producer partitions across.  A
    replacement keeps the dead task's exact group *order* — partition
    index → consumer must match what the sibling producers (and any
    already-shuffled build side) used — with dead members resolved to
    whatever was respawned in their place."""
    old_group = replaces.output_buffer.group if replaces is not None else []
    if not old_group:
        return _seqs(parent.active_group)
    by_seq = {t.task_id.seq: t for t in parent.tasks}
    group = []
    for seq in old_group:
        task = by_seq[seq]
        while task.replaced_by is not None:
            task = task.replaced_by
        group.append(task.task_id.seq)
    return group


def _spool_lost(producer: Task) -> bool:
    """The producer's output is discarded (restart in progress) or will
    be (crashed, not yet recovered, and not a resumable scan)."""
    return producer.output_buffer.aborted or (
        producer.crashed and not producer.recovered and not producer.stateless_scan
    )


# -- removing tasks -----------------------------------------------------------
def detach_tasks(
    scheduler: "Scheduler",
    query: "QueryExecution",
    stage: StageExecution,
    victims: Sequence[Task],
) -> None:
    """Shut ``victims`` down by end signals: to the drivers of a scan
    task (unread splits return to the split feed), otherwise to the
    victim's buffer id on every child-stage output buffer.  Refused for
    members of a hash buffer-ID group, and when no task of the active
    group would be left to absorb the work."""
    if _reads_hash_input(query, stage):
        raise TuningRejected(
            f"stage {stage.id} tasks are a hash buffer-ID group; an end "
            "signal would drop their partitions",
            reason="hash-group",
        )
    if all(t in victims or t.end_signalled for t in stage.active_group):
        raise TuningRejected(
            f"stage {stage.id} would be left without a task", reason="last-task"
        )
    requests = 0
    for task in victims:
        task.end_signalled = True
        if stage.fragment.is_source:
            task.request_end()
            requests += RPC_UPDATE_LINK
        else:
            for child_id in stage.fragment.children:
                for producer in query.stages[child_id].tasks:
                    producer.output_buffer.end_consumer(task.task_id.seq)
                    requests += RPC_UPDATE_LINK
    scheduler.rpc.charge(requests, query_id=query.id)


# -- hash buffer-ID groups ----------------------------------------------------
def regroup(
    producer: Task,
    members: Sequence[Task],
    retire: Sequence[Task] = (),
    replay_cache: bool = False,
) -> None:
    """Install ``members`` as a hash producer's buffer-ID group (Section
    4.5) and link each one.  ``replay_cache`` reshuffles the intermediate
    data cache to them (the build-side rebuild); ``retire`` closes the
    former group once partitions already in flight for it have landed."""
    buffer = producer.output_buffer
    buffer.set_group(_seqs(members), replay_cache=replay_cache)
    if retire:
        buffer.end_group(_seqs(retire))
    for consumer in members:
        link(producer, consumer)
