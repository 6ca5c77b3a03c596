"""Script executor: runs experiment scripts against an engine.

Untimed steps (``submit``, ``monitor``, ``run``) run as the executor
reaches them; each ``at`` line goes to the plan applier right there
(:func:`~repro.script.plan.apply_event`), so it fires at ``max(now,
at)``.  Rejected tuning requests are recorded (with the filter's reason)
rather than raised, matching the paper's experiments where the
coordinator declines late adjustments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..cluster import QueryOptions
from ..data.tpch.queries import QUERIES
from ..engine import AccordionEngine
from ..errors import ScriptError
from ..handle import QueryHandle
from .lang import MonitorCommand, RunForCommand, RunUntilDoneCommand, SubmitCommand, parse_script
from .plan import apply_event


@dataclass
class ActionLog:
    time: float
    description: str
    accepted: bool
    reason: str = ""


@dataclass
class ScriptResult:
    queries: dict[str, QueryHandle] = field(default_factory=dict)
    actions: list[ActionLog] = field(default_factory=list)

    def query(self, name: str) -> QueryHandle:
        if name not in self.queries:
            raise ScriptError(f"unknown query {name!r}")
        return self.queries[name]

    def record(self, time: float, description: str, reason: str | None = None) -> None:
        """Log one tuning action: accepted, or rejected for ``reason``."""
        self.actions.append(ActionLog(time, description, reason is None, reason or ""))

    def accepted_actions(self) -> list[ActionLog]:
        return [a for a in self.actions if a.accepted]

    def rejected_actions(self) -> list[ActionLog]:
        return [a for a in self.actions if not a.accepted]


class ScriptExecutor:
    def __init__(self, engine: AccordionEngine):
        self.engine = engine
        self.result = ScriptResult()

    # ------------------------------------------------------------------
    def run(self, script: str) -> ScriptResult:
        plan = parse_script(script)
        rng = random.Random(plan.seed)
        for command in plan:
            if isinstance(command, SubmitCommand):
                self._submit(command)
            elif isinstance(command, MonitorCommand):
                self.result.query(command.query).tuning.start_monitor(command.period)
            elif isinstance(command, RunForCommand):
                self.engine.run_for(command.seconds)
            elif isinstance(command, RunUntilDoneCommand):
                self.engine.run_until_done(self.result.query(command.query), command.max_seconds)
            else:
                apply_event(self.engine, command, rng, self.result)
        return self.result

    # ------------------------------------------------------------------
    def _submit(self, command: SubmitCommand) -> None:
        if command.name in self.result.queries:
            raise ScriptError(f"duplicate query name {command.name!r}")
        sql = QUERIES.get(command.query.upper(), command.query)
        options = self._build_options(command.options)
        query = self.engine.submit(sql, options)
        self.result.queries[command.name] = query
        if self.engine.config.elasticity_enabled:
            # The query's tuning collector samples from submission on; a
            # baseline engine has none, and fails only a script that tunes.
            query.tuning

    def _build_options(self, raw: dict[str, str]) -> QueryOptions:
        options = QueryOptions()
        stage_dops: dict[int, int] = {}
        for key, value in raw.items():
            if key == "stage_dop":
                options.initial_stage_dop = int(value)
            elif key == "task_dop":
                options.initial_task_dop = int(value)
            elif key == "scan_dop":
                options.scan_stage_dop = int(value)
            elif key == "join":
                if value not in ("auto", "broadcast", "partitioned"):
                    raise ScriptError(f"bad join distribution {value!r}")
                options.join_distribution = value
            elif key == "shuffle":
                options.shuffle_stage_tables = frozenset(
                    t.strip().lower() for t in value.split(",") if t.strip()
                )
            elif key.startswith("s") and key[1:].isdigit():
                stage_dops[int(key[1:])] = int(value)
            else:
                raise ScriptError(f"unknown submit option {key!r}")
        options.stage_dops = stage_dops
        return options


def run_script(engine: AccordionEngine, script: str) -> ScriptResult:
    """Parse and execute ``script`` against ``engine``."""
    return ScriptExecutor(engine).run(script)
