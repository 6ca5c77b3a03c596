"""Experiment scripting language and executor (paper Section 6.1)."""

from .executor import ActionLog, ScriptExecutor, ScriptResult, run_script
from .lang import parse_script, parse_stage, parse_time
from .plan import Plan

__all__ = [
    "ActionLog",
    "Plan",
    "ScriptExecutor",
    "ScriptResult",
    "parse_script",
    "parse_stage",
    "parse_time",
    "run_script",
]
