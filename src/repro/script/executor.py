"""Script executor: runs experiment scripts against an engine.

Tuning actions are scheduled at their virtual times; rejected requests are
recorded (with the filter's reason) rather than raised, matching the
paper's experiments where the coordinator declines late adjustments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..autotune import ElasticQuery
from ..cluster import QueryOptions
from ..data.tpch.queries import QUERIES
from ..engine import AccordionEngine
from ..errors import ScriptError, TuningRejected
from ..handle import QueryHandle
from .lang import (
    Command,
    ConstraintCommand,
    MonitorCommand,
    RunForCommand,
    RunUntilDoneCommand,
    SubmitCommand,
    TuneCommand,
    TuneOnceCommand,
    parse_script,
)


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
        return self.queries[name]

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
        for command in parse_script(script):
            self._execute(command)
        return self.result

    # ------------------------------------------------------------------
    def _execute(self, command: Command) -> None:
        if isinstance(command, SubmitCommand):
            self._submit(command)
        elif isinstance(command, TuneCommand):
            self._schedule_tuning(command)
        elif isinstance(command, ConstraintCommand):
            elastic = self._elastic(command.query)
            self.engine.kernel.schedule_at(
                max(command.time, self.engine.now),
                lambda: elastic.set_constraint(command.stage, command.seconds),
            )
        elif isinstance(command, TuneOnceCommand):
            elastic = self._elastic(command.query)
            self.engine.kernel.schedule_at(
                max(command.time, self.engine.now),
                lambda: elastic.tune_once(command.stage, command.seconds),
            )
        elif isinstance(command, MonitorCommand):
            self._elastic(command.query).start_monitor(command.period)
        elif isinstance(command, RunForCommand):
            self.engine.run_for(command.seconds)
        elif isinstance(command, RunUntilDoneCommand):
            query = self._query(command.query)
            self.engine.run_until_done(query, command.max_seconds)
        else:  # pragma: no cover - parser produces only the above
            raise ScriptError(f"unhandled command {command!r}")

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

    # ------------------------------------------------------------------
    def _schedule_tuning(self, command: TuneCommand) -> None:
        elastic = self._elastic(command.query)

        def fire() -> None:
            description = f"{command.verb.upper()} S{command.stage} -> {command.target}"
            try:
                if command.verb == "ac":
                    elastic.ac(command.stage, command.target)
                elif command.verb == "ap":
                    elastic.ap(command.stage, command.target)
                else:
                    elastic.rp(command.stage, command.target)
                self.result.actions.append(
                    ActionLog(self.engine.now, description, accepted=True)
                )
            except TuningRejected as exc:
                self.result.actions.append(
                    ActionLog(self.engine.now, description, accepted=False, reason=exc.reason)
                )

        self.engine.kernel.schedule_at(max(command.time, self.engine.now), fire)

    # ------------------------------------------------------------------
    def _query(self, name: str) -> QueryHandle:
        try:
            return self.result.queries[name]
        except KeyError:
            raise ScriptError(f"unknown query {name!r}") from None

    def _elastic(self, name: str) -> ElasticQuery:
        return self._query(name).tuning


def run_script(engine: AccordionEngine, script: str) -> ScriptResult:
    """Parse and execute ``script`` against ``engine``."""
    return ScriptExecutor(engine).run(script)
