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


class HistoryStore:
    def __init__(self, history_dir: str | None = None):
        self.history_dir = history_dir
        #: template fingerprint -> list of recorded runs (dicts).
        self._runs: dict[str, list[dict]] = {}
        if history_dir is not None:
            self._load()

    # -- recording ----------------------------------------------------------
    def record(self, template: str, run: dict) -> int:
        """Append one run; returns how many the template now has."""
        runs = self._runs.setdefault(template, [])
        runs.append(run)
        if self.history_dir is not None:
            self.save()
        return len(runs)

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
        runtimes = [r["runtime"] for r in runs]
        mean = sum(runtimes) / n
        variance = sum((t - mean) ** 2 for t in runtimes) / n
        peak = int(round(sum(r.get("peak_query_bytes", 0) for r in runs) / n))
        # Per-stage mean over the runs that observed the stage (plans are
        # identical within a template, so normally all of them).
        by_stage: dict[int, list[dict]] = {}
        for run in runs:
            for stage in run.get("stages", ()):
                by_stage.setdefault(stage["stage"], []).append(stage)
        stages = []
        for sid in sorted(by_stage):
            obs = by_stage[sid]
            k = len(obs)

            def mean_of(fld: str) -> float:
                return sum(o[fld] for o in obs) / k

            stages.append(StageDemand(
                stage=sid,
                cpu_seconds=mean_of("cpu_seconds"),
                quanta=int(round(mean_of("quanta"))),
                peak_memory_bytes=int(round(mean_of("peak_memory_bytes"))),
                exchange_bytes=int(round(mean_of("exchange_bytes"))),
                rows_out=int(round(mean_of("rows_out"))),
                tasks=int(round(mean_of("tasks"))),
                start=mean_of("start"),
                end=mean_of("end"),
            ))
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
