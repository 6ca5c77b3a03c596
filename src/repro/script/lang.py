"""The built-in experiment scripting language (paper Section 6.1).

Accordion ships a small script language for controlling query initiation
and parallelism adjustments at specified virtual times; the evaluation
uses it to drive every throughput experiment.  Line-oriented grammar::

    # comments and blank lines are ignored
    seed 42                    # seeds the RPC windows' outcomes
    submit q3 Q3 stage_dop=1 task_dop=1
    submit qj "select count(*) from lineitem" join=partitioned
    at 10s ac q3 S3 2          # add task DOP of stage 3 to 2
    at 40s ap q3 S1 4          # add stage DOP of stage 1 to 4
    at 60s rp q3 S1 2          # reduce stage DOP of stage 1 to 2
    at 5s  constraint q3 S1 30s
    at 5s  tune_once q3 S1 20s
    at 3.5s crash compute2     # faults and churn (repro.script.plan)
    at 1.4s crash_task S2 0
    at 0s  storm until 9s rate=0.2 delay=0.0s
    at 0s  outage until 9s
    at 2s  join 1 spot
    at 4s  drain newest timeout=10s
    at 6s  preempt newest notice=0.3s
    monitor q3 period=2s
    run until q3 done max=5000s
    run for 10s

``submit`` options: ``stage_dop``, ``task_dop``, ``scan_dop``,
``join`` (auto|broadcast|partitioned), ``shuffle`` (comma-separated table
names), and ``sN`` per-stage DOP overrides (e.g. ``s1=10``).
The query argument is either a named TPC-H query (Q1..Q19, Q2J, QSHUFFLE)
or a quoted SQL string.  :func:`parse_script` returns a
:class:`~repro.script.plan.Plan`; every ``at`` line is one of its events.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field

from ..errors import ScriptError
from .plan import (
    Constraint,
    NodeCrash,
    NodeDrain,
    NodeJoin,
    Plan,
    RpcOutage,
    RpcStorm,
    SpotPreemption,
    TaskCrash,
    Tune,
    TuneOnce,
)

_TIME_RE = re.compile(r"^(\d+(?:\.\d*)?(?:e[-+]?\d+)?)(s|ms)?$")
_STAGE_RE = re.compile(r"^[sS](\d+)$")


def parse_time(text: str) -> float:
    match = _TIME_RE.match(text)
    if not match:
        raise ScriptError(f"bad time value: {text!r}")
    value = float(match.group(1))
    if match.group(2) == "ms":
        value /= 1000.0
    return value


def parse_stage(text: str) -> int:
    match = _STAGE_RE.match(text)
    if not match:
        raise ScriptError(f"bad stage reference: {text!r} (expected S<number>)")
    return int(match.group(1))


# ---------------------------------------------------------------------------
# the untimed steps (the timed ones are repro.script.plan's events)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SubmitCommand:
    name: str
    query: str  # named query or raw SQL
    options: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class MonitorCommand:
    query: str
    period: float = 2.0


@dataclass(frozen=True)
class RunForCommand:
    seconds: float


@dataclass(frozen=True)
class RunUntilDoneCommand:
    query: str
    max_seconds: float = 1e6


def parse_script(text: str) -> Plan:
    seed, commands = 0, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(raw, comments=True)
            if len(tokens) == 2 and tokens[0].lower() == "seed":
                seed = int(tokens[1])
            elif tokens:
                commands.append(_parse_line(tokens))
        except (ScriptError, ValueError) as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
    return Plan(seed, commands)


def _parse_line(tokens: list[str]):
    head = tokens[0].lower()
    if head == "submit":
        if len(tokens) < 3:
            raise ScriptError("submit needs a name and a query")
        options = {}
        for item in tokens[3:]:
            if "=" not in item:
                raise ScriptError(f"bad submit option {item!r} (expected key=value)")
            key, value = item.split("=", 1)
            options[key.lower()] = value
        return SubmitCommand(tokens[1], tokens[2], options)
    if head == "at":
        if len(tokens) < 3:
            raise ScriptError("at needs a time and an action")
        return _parse_at(parse_time(tokens[1]), tokens[2].lower(), tokens[3:])
    if head == "monitor":
        (query,), options = _fit(head, tokens[1:], "<query>", "period")
        return MonitorCommand(query, parse_time(options.get("period", "2")))
    if head == "run" and tokens[1:2] == ["for"]:
        return RunForCommand(parse_time(_fit(head, tokens[1:], "for <time>")[0][1]))
    if head == "run":
        (_, query, _), options = _fit(head, tokens[1:], "until <query> done", "max")
        return RunUntilDoneCommand(query, parse_time(options.get("max", "1e6")))
    raise ScriptError(f"unknown command {head!r}")


def _fit(verb: str, args: list[str], usage: str, *allowed: str):
    """``args`` as the words ``usage`` spells (``<...>`` is any word) and
    the ``key=value`` options ``allowed`` names; else a ``ScriptError``."""
    words = [a for a in args if "=" not in a]
    options = dict(a.split("=", 1) for a in args if "=" in a)
    shape = usage.split()
    literal = all("<" in s or s == w for s, w in zip(shape, words))
    if len(words) != len(shape) or not literal or not set(options) <= set(allowed):
        extra = "".join(f" [{o}=]" for o in allowed)
        raise ScriptError(f"{verb} needs: {verb} {usage}{extra}")
    return words, options


def _parse_at(at: float, verb: str, args: list[str]):
    """One ``at`` line's event: ``verb`` with its words and options."""
    if verb in ("ac", "ap", "rp"):
        (query, stage, target), _ = _fit(verb, args, "<query> S<stage> <target>")
        return Tune(at, verb, query, parse_stage(stage), int(target))
    if verb in ("constraint", "tune_once"):
        (query, stage, seconds), _ = _fit(verb, args, "<query> S<stage> <seconds>")
        kind = Constraint if verb == "constraint" else TuneOnce
        return kind(at, query, parse_stage(stage), parse_time(seconds))
    if verb == "crash":
        return NodeCrash(at, *_fit(verb, args, "<node>")[0])
    if verb == "crash_task":
        (stage, index), _ = _fit(verb, args, "S<stage> <index>")
        return TaskCrash(at, parse_stage(stage), int(index))
    if verb == "outage":
        return RpcOutage(at, parse_time(_fit(verb, args, "until <time>")[0][1]))
    if verb == "storm":
        (_, stop), options = _fit(verb, args, "until <time>", "rate", "delay")
        rate, delay = float(options.get("rate", 0.5)), parse_time(options.get("delay", "0"))
        return RpcStorm(at, parse_time(stop), rate, delay)
    if verb == "join":
        spot = args[1:] == ["spot"]
        (count, *_), _ = _fit(verb, args, "<count> spot" if spot else "<count>")
        return NodeJoin(at, int(count), spot)
    if verb == "drain":
        (node,), options = _fit(verb, args, "<node>", "timeout")
        timeout = options.get("timeout")
        return NodeDrain(at, node, None if timeout is None else parse_time(timeout))
    if verb == "preempt":
        (node,), options = _fit(verb, args, "<node>", "notice")
        return SpotPreemption(at, node, parse_time(options.get("notice", "0.5")))
    raise ScriptError(f"unknown action {verb!r}")
