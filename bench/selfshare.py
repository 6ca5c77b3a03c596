"""Self-time share by ``repro`` package, from a cProfile pass.

A function under ``src/repro/<pkg>`` owns its own ``tottime``.  Time
inside builtins, numpy and the standard library belongs to whoever called
them: it is pushed up the cProfile callers table, split by each caller's
share of the callee's time, until it lands on a ``src/repro`` frame (or on
``other`` when it reaches the benchmark's own code or a root).

cProfile charges every Python call and nothing inside native code, so the
shares are a map of where to look, not a measurement of speed.
"""

from __future__ import annotations

import cProfile
import pstats

PACKAGES = (
    "sql",
    "plan",
    "sim",
    "pages",
    "exec",
    "exec-operators",
    "exec-spill",
    "buffers",
    "cluster",
    "elastic",
    "autotune",
    "parallel",
    "sharing",
    "predict",
    "workload",
    "obs",
    "data",
    "other",
)

_MARKER = "/src/repro/"
#: Depth bound for pushing non-repro time up the caller graph (numpy and
#: stdlib call chains are short; cycles are cut by the visiting set too).
_MAX_DEPTH = 12


def package_of(filename: str) -> str | None:
    """The ledger package of a source file, or None outside ``src/repro``."""
    index = filename.rfind(_MARKER)
    if index < 0:
        return None
    parts = filename[index + len(_MARKER):].split("/")
    if len(parts) == 1:
        return "other"  # engine.py, handle.py, config.py, ...
    package = parts[0]
    if package == "exec" and len(parts) > 2 and parts[1] in ("operators", "spill"):
        return f"exec-{parts[1]}"
    return package if package in PACKAGES else "other"


def shares(profile: cProfile.Profile) -> dict[str, float]:
    """``{package: share of total tottime}``; the shares sum to 1."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    totals = dict.fromkeys(PACKAGES, 0.0)

    def push_up(func, seconds: float, depth: int, visiting: frozenset) -> None:
        package = package_of(func[0])
        if package is not None:
            totals[package] += seconds
            return
        callers = stats[func][4] if func in stats else {}
        # First hop: the edge's own tottime, which is exact.  Further up,
        # a caller's time is split by the cumulative time of its edges.
        field = 2 if depth == 0 else 3
        weights = {
            caller: edge[field]
            for caller, edge in callers.items()
            if caller not in visiting
        }
        weight = sum(weights.values())
        if depth >= _MAX_DEPTH or weight <= 0.0:
            totals["other"] += seconds
            return
        for caller, edge_weight in weights.items():
            push_up(
                caller, seconds * edge_weight / weight, depth + 1,
                visiting | {func},
            )

    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        if tottime > 0.0:
            push_up(func, tottime, 0, frozenset())
    total = sum(totals.values())
    if total <= 0.0:
        return {**totals, "other": 1.0}
    return {package: seconds / total for package, seconds in totals.items()}
