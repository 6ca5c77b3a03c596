"""Trace-history store: recorded runs -> demand profiles (DESIGN.md §16).

One store per engine, keyed by template fingerprint.  Each recorded run
is a plain dict (runtime, query peak bytes, per-stage metrics); the
aggregate prediction is the per-metric mean over runs with population
variance on the runtime.  Serialization is canonical JSON
(``sort_keys=True``) so same-seed accumulation is byte-identical across
runs — the history file can itself be diffed in CI.  ``history_dir``
persists the store to ``history.json`` after every record; ``None``
keeps it in memory only.
"""

from __future__ import annotations

import json
import os

from .profile import Prediction, StageDemand

__all__ = ["HistoryStore"]

#: Bump when the run schema changes; old files are discarded, not migrated.
HISTORY_VERSION = 1


#: The per-stage metrics a prediction averages.
_STAGE_FIELDS = ("cpu_seconds", "quanta", "peak_memory_bytes", "exchange_bytes",
                 "rows_out", "tasks", "start", "end")


class HistoryStore:
    def __init__(self, history_dir: str | None = None):
        self.history_dir = history_dir
        #: template fingerprint -> list of recorded runs (dicts).
        self._runs: dict[str, list[dict]] = {}
        #: template fingerprint -> running sums over its runs, added in
        #: record order from 0 as ``sum()`` adds, so every mean is
        #: bit-identical to one recomputed over the runs.
        self._sums: dict[str, dict] = {}
        if history_dir is not None:
            self._load()

    # -- recording ----------------------------------------------------------
    def record(self, template: str, run: dict) -> int:
        """Append one run; returns how many the template now has."""
        runs = self._runs.setdefault(template, [])
        runs.append(run)
        self._add(template, run)
        if self.history_dir is not None:
            self.save()
        return len(runs)

    def _add(self, template: str, run: dict) -> None:
        sums = self._sums.setdefault(template, {"runtime": 0, "peak": 0, "stages": {}})
        sums["runtime"] += run["runtime"]
        sums["peak"] += run.get("peak_query_bytes", 0)
        for stage in run.get("stages", ()):
            acc = sums["stages"].setdefault(stage["stage"], {"k": 0})
            acc["k"] += 1
            for fld in _STAGE_FIELDS:
                acc[fld] = acc.get(fld, 0) + stage[fld]

    def __len__(self) -> int:
        """Templates with at least one recorded run."""
        return len(self._runs)

    def total_runs(self) -> int:
        return sum(len(v) for v in self._runs.values())

    # -- prediction ---------------------------------------------------------
    def predict(self, template: str) -> Prediction | None:
        """Served from the first recorded run of a template on."""
        runs = self._runs.get(template)
        if not runs:
            return None
        n = len(runs)
        sums = self._sums[template]
        mean = sums["runtime"] / n
        variance = sum((r["runtime"] - mean) ** 2 for r in runs) / n
        peak = int(round(sums["peak"] / n))
        # Per-stage mean over the runs that observed the stage (plans are
        # identical within a template, so normally all of them).
        stages = []
        for sid, acc in sorted(sums["stages"].items()):
            means = {fld: acc[fld] / acc["k"] for fld in _STAGE_FIELDS}
            stages.append(StageDemand(stage=sid, **{  # counts and bytes round
                fld: mean if fld in ("cpu_seconds", "start", "end") else int(round(mean))
                for fld, mean in means.items()
            }))
        return Prediction(
            template=template,
            samples=n,
            runtime=mean,
            variance=variance,
            peak_memory_bytes=peak,
            stages=tuple(stages),
        )

    # -- persistence --------------------------------------------------------
    def to_json(self) -> str:
        """Canonical serialization: byte-identical for identical history."""
        return json.dumps(
            {"version": HISTORY_VERSION, "templates": self._runs},
            sort_keys=True,
            separators=(",", ":"),
        )

    @property
    def _path(self) -> str:
        return os.path.join(self.history_dir, "history.json")

    def save(self) -> None:
        os.makedirs(self.history_dir, exist_ok=True)
        with open(self._path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def _load(self) -> None:
        try:
            with open(self._path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        if data.get("version") != HISTORY_VERSION:
            return
        templates = data.get("templates")
        if isinstance(templates, dict):
            self._runs = {str(k): list(v) for k, v in templates.items()}
            for template, runs in self._runs.items():
                for run in runs:
                    self._add(template, run)
