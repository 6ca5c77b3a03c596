"""Timed-action plans: what happens to a running engine, and when.

A :class:`Plan` is a seed and an ordered event list.  The §6.1 script's
``at`` lines, a fault schedule and a churn schedule are all plans, and
``engine.apply(plan)`` is their one applier (DESIGN.md §7): each timed
event's ``fire`` body runs at ``max(now, at)``, scheduled in plan order;
each RPC window (:class:`RpcStorm`, :class:`RpcOutage`) stays armed on
the coordinator's RPC tracker and draws its outcomes from its own plan's
``random.Random(seed)``.  ``Plan.describe()`` is script text that
:func:`~repro.script.parse_script` reads back to an equal plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ScriptError, TuningRejected


def fmt_time(seconds: float) -> str:
    """A time as script text that ``parse_time`` reads back exactly."""
    return f"{seconds!r}s"


class Timed:
    """An event whose ``fire(engine, script)`` runs at virtual time ``at``."""


class Window:
    """An RPC fault window over ``[start, stop)``, armed when applied."""

    def line(self) -> str:
        return f"at {fmt_time(self.start)} {self.verb} until {fmt_time(self.stop)}"


class Tuning(Timed):
    """A tuning action on a query a script named (``script.query(name)``)."""


# -- faults ---------------------------------------------------------------------
@dataclass(frozen=True)
class NodeCrash(Timed):
    """Kill one node at ``at`` (by name: ``compute3``, ``storage0``,
    ``coordinator``).  Cores are revoked quantum-atomically; spooled task
    output stays readable via durable disaggregated storage."""

    at: float
    node: str

    def line(self) -> str:
        return f"at {fmt_time(self.at)} crash {self.node}"

    def fire(self, engine, script) -> None:
        node = engine.cluster.node_by_name(self.node)
        if node.alive:
            engine.decisions.record("inject", "node_crash", node=node.name, reason=node.name)
            engine.coordinator.recovery.node_down(node)


@dataclass(frozen=True)
class TaskCrash(Timed):
    """Crash one running task of stage ``stage`` at ``at`` — the
    ``index``-th unfinished one, in the lowest-id running query that has
    one — without killing its node."""

    at: float
    stage: int
    index: int = 0

    def line(self) -> str:
        return f"at {fmt_time(self.at)} crash_task S{self.stage} {self.index}"

    def fire(self, engine, script) -> None:
        for query in engine.coordinator.running.values():
            stage = query.stages.get(self.stage)
            tasks = [t for t in stage.tasks if not t.finished and not t.crashed] if stage else []
            if tasks:
                task = tasks[self.index % len(tasks)]
                engine.decisions.record(
                    "inject", "task_crash", query_id=query.id, stage=stage.id,
                    node=task.node.name, reason=f"{task.task_id} on {task.node.name}")
                engine.coordinator.recovery.task_down(query, stage, task)
                return


@dataclass(frozen=True)
class RpcStorm(Window):
    """Between ``start`` and ``stop``, each control-plane request fails
    with probability ``failure_rate`` (seeded RNG) and otherwise suffers
    ``delay`` extra seconds.  Failed requests retry with bounded backoff."""

    start: float
    stop: float
    failure_rate: float = 0.5
    delay: float = 0.0
    verb = "storm"

    def line(self) -> str:
        return f"{super().line()} rate={self.failure_rate!r} delay={fmt_time(self.delay)}"

    def outcome(self, rng: random.Random):
        if rng.random() < self.failure_rate:
            return "fail"
        return ("delay", self.delay) if self.delay else None


@dataclass(frozen=True)
class RpcOutage(Window):
    """Between ``start`` and ``stop`` every control-plane request fails.
    An outage longer than the full retry schedule fails in-flight actions
    (and their queries) with a structured error."""

    start: float
    stop: float
    verb = "outage"

    def outcome(self, rng: random.Random):
        return "fail"


# -- churn ----------------------------------------------------------------------
def _leaver(engine, name: str):
    """The active node a drain or preemption names, or None — also when
    it is the last schedulable node.  ``"newest"`` is the latest node
    joined at runtime: a plan sheds elastic capacity, never the base
    fleet."""
    if name == "newest":
        active = [n for n in engine.membership.joined_nodes if n.state == "active"]
        node = max(active, key=lambda n: (n.provisioned_at, n.id), default=None)
    else:
        node = engine.cluster.node_by_name(name)
    if node is None or node.state != "active" or len(engine.cluster.schedulable_compute) <= 1:
        return None
    return node


@dataclass(frozen=True)
class NodeJoin(Timed):
    """Provision ``count`` compute nodes at virtual time ``at``."""

    at: float
    count: int = 1
    spot: bool = False

    def line(self) -> str:
        return f"at {fmt_time(self.at)} join {self.count}" + (" spot" if self.spot else "")

    def fire(self, engine, script) -> None:
        engine.membership.join(self.count, spot=self.spot)


@dataclass(frozen=True)
class NodeDrain(Timed):
    """Gracefully drain a compute node at ``at``.  ``node`` is a name
    (``compute3``) or ``"newest"`` (the most recently joined node still
    active at fire time)."""

    at: float
    node: str = "newest"
    timeout: float | None = None

    def line(self) -> str:
        timeout = "" if self.timeout is None else f" timeout={fmt_time(self.timeout)}"
        return f"at {fmt_time(self.at)} drain {self.node}{timeout}"

    def fire(self, engine, script) -> None:
        node = _leaver(engine, self.node)
        if node is not None:
            engine.membership.drain(node, timeout=self.timeout)


@dataclass(frozen=True)
class SpotPreemption(Timed):
    """Preempt a (spot) node at ``at`` with ``notice`` virtual seconds of
    warning; undrained work is killed and recovered via lineage replay."""

    at: float
    node: str = "newest"
    notice: float = 0.5

    def line(self) -> str:
        return f"at {fmt_time(self.at)} preempt {self.node} notice={fmt_time(self.notice)}"

    def fire(self, engine, script) -> None:
        node = _leaver(engine, self.node)
        if node is not None:
            engine.membership.preempt(node, notice=self.notice)


# -- tuning (§6.1) --------------------------------------------------------------
@dataclass(frozen=True)
class Tune(Tuning):
    """``ac`` (task DOP), ``ap`` / ``rp`` (stage DOP up / down) of stage
    ``stage`` to ``target``; accepted or rejected, it is logged in
    ``ScriptResult.actions``."""

    at: float
    verb: str
    query: str
    stage: int
    target: int

    def line(self) -> str:
        return f"at {fmt_time(self.at)} {self.verb} {self.query} S{self.stage} {self.target}"

    def fire(self, engine, script) -> None:
        reason = None
        try:
            getattr(script.query(self.query).tuning, self.verb)(self.stage, self.target)
        except TuningRejected as exc:
            reason = exc.reason
        script.record(engine.now, f"{self.verb.upper()} S{self.stage} -> {self.target}", reason)


@dataclass(frozen=True)
class _StageSeconds(Tuning):
    at: float
    query: str
    stage: int
    seconds: float

    def line(self) -> str:
        seconds = fmt_time(self.seconds)
        return f"at {fmt_time(self.at)} {self.verb} {self.query} S{self.stage} {seconds}"


class Constraint(_StageSeconds):
    """Give stage ``stage`` a deadline ``seconds`` from now (``constraint``)."""

    verb = "constraint"

    def fire(self, engine, script) -> None:
        script.query(self.query).tuning.set_constraint(self.stage, self.seconds)


class TuneOnce(_StageSeconds):
    """Tune stage ``stage`` once towards a ``seconds`` deadline (``tune_once``)."""

    verb = "tune_once"

    def fire(self, engine, script) -> None:
        script.query(self.query).tuning.tune_once(self.stage, self.seconds)


# -- the plan and its applier -----------------------------------------------------
@dataclass(frozen=True)
class Plan:
    """A seed and an ordered list of script lines.  ``engine.apply`` arms
    the timed events and RPC windows; a parsed script also holds the
    untimed steps (``submit``, ``monitor``, ``run``) only ``run_script``
    runs."""

    seed: int = 0
    events: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def __getitem__(self, index):
        """The events in order; iterating a plan walks them."""
        return self.events[index]

    def describe(self) -> str:
        """The events as script text: ``parse_script(plan.describe()) ==
        plan``.  (A parsed script's untimed steps have no rendering.)"""
        return "\n".join([f"seed {self.seed}"] + [e.line() for e in self.events])

    @staticmethod
    def random_faults(
        seed: int,
        *,
        horizon: float,
        compute_nodes: int,
        storage_nodes: int = 0,
        node_crashes: int = 1,
        storms: int = 0,
        storm_failure_rate: float = 0.4,
    ) -> "Plan":
        """Seeded compute/storage node crashes (never the coordinator) and
        optional RPC storms within ``[0, horizon]``, drawn from
        ``random.Random(seed)`` in a fixed order."""
        rng = random.Random(seed)
        names = [f"compute{i}" for i in range(compute_nodes)]
        names += [f"storage{i}" for i in range(storage_nodes)]
        victims = rng.sample(names, k=min(node_crashes, len(names)))
        events = [NodeCrash(rng.uniform(0.05, horizon), name) for name in victims]
        for _ in range(storms):
            start = rng.uniform(0.0, horizon)
            stop = start + rng.uniform(0.05, horizon / 2)
            events.append(RpcStorm(start, stop, failure_rate=storm_failure_rate))
        return Plan._sorted(seed, events)

    @staticmethod
    def random_churn(
        seed: int,
        *,
        horizon: float,
        joins: int = 1,
        drains: int = 0,
        preemptions: int = 0,
        spot: bool = True,
        notice: float = 0.5,
    ) -> "Plan":
        """Seeded churn within ``[0, horizon]``: joins, then drains, then
        preemptions drawn from ``random.Random(seed)``.  Drains and
        preemptions target ``"newest"``, so base capacity survives."""
        rng = random.Random(seed)
        events = [NodeJoin(rng.uniform(0.0, horizon), spot=spot) for _ in range(joins)]
        events += [NodeDrain(rng.uniform(0.05, horizon)) for _ in range(drains)]
        events += [SpotPreemption(rng.uniform(0.05, horizon), notice=notice)
                   for _ in range(preemptions)]
        return Plan._sorted(seed, events)

    @staticmethod
    def _sorted(seed: int, events: list) -> "Plan":
        """By time (a window's start), ties by class name — the order the
        two generators always had."""
        def when(e) -> tuple:
            return (e.start if isinstance(e, Window) else e.at, type(e).__name__)

        return Plan(seed, sorted(events, key=when))


def apply_event(engine, event, rng: random.Random, script=None) -> None:
    """The applier's one step: schedule a timed event at ``max(now, at)``
    or arm an RPC window drawing from ``rng``.  A tuning event needs the
    ``script`` whose query it names; on an engine without elasticity it
    fails here, at its line, not when it fires.  Any fault makes
    ``faults.injected`` an ``engine.metrics`` gauge."""
    if isinstance(event, Window):
        engine.coordinator.rpc.add_fault_window(event, rng)
    elif isinstance(event, Timed):
        if isinstance(event, Tuning):
            if script is None:
                raise ScriptError(f"{event.line()!r} names a script query: run it with run_script")
            script.query(event.query).tuning  # raises on a baseline engine
        engine.kernel.schedule_at(max(engine.now, event.at), lambda: event.fire(engine, script))
    else:
        raise ScriptError(f"{event!r} is a script step: run it with run_script")
    if isinstance(event, (NodeCrash, TaskCrash, Window)):
        count = engine.decisions.count
        engine.metrics.gauge("faults.injected", lambda: count("inject", "node_crash")
                             + count("inject", "task_crash"))
