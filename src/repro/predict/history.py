"""Trace-history store: recorded runs -> demand profiles (DESIGN.md §16).

One store per engine, keyed by template fingerprint.  A recorded run is
a plain dict (runtime, query peak bytes, per-stage metrics); the store
keeps, per template, the running sums of those metrics and one float per
run, its runtime: the prediction is the per-metric mean over runs with
population variance on the runtime.  Serialization is canonical JSON
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

#: Bump when the stored schema changes; old files are discarded, not
#: migrated.  2: running sums + runtimes per template, no per-run dicts.
HISTORY_VERSION = 2


#: The per-stage metrics a prediction averages.
_STAGE_FIELDS = ("cpu_seconds", "quanta", "peak_memory_bytes", "exchange_bytes",
                 "rows_out", "tasks", "start", "end")


class HistoryStore:
    def __init__(self, history_dir: str | None = None):
        self.history_dir = history_dir
        #: template fingerprint -> ``{"runtimes": [...], "sums": {...}}``:
        #: each run's runtime (the variance's second pass reads them) and
        #: the running sums over its runs, added in record order from 0 as
        #: ``sum()`` adds, so every mean is bit-identical to one
        #: recomputed over the runs.
        self._templates: dict[str, dict] = {}
        if history_dir is not None:
            self._load()

    # -- recording ----------------------------------------------------------
    def record(self, template: str, run: dict) -> int:
        """Add one run; returns how many the template now has."""
        entry = self._templates.setdefault(template, {
            "runtimes": [], "sums": {"runtime": 0, "peak": 0, "stages": {}},
        })
        entry["runtimes"].append(run["runtime"])
        sums = entry["sums"]
        sums["runtime"] += run["runtime"]
        sums["peak"] += run.get("peak_query_bytes", 0)
        for stage in run.get("stages", ()):
            acc = sums["stages"].setdefault(stage["stage"], {"k": 0})
            acc["k"] += 1
            for fld in _STAGE_FIELDS:
                acc[fld] = acc.get(fld, 0) + stage[fld]
        if self.history_dir is not None:
            self.save()
        return len(entry["runtimes"])

    def __len__(self) -> int:
        """Templates with at least one recorded run."""
        return len(self._templates)

    def total_runs(self) -> int:
        return sum(len(e["runtimes"]) for e in self._templates.values())

    # -- prediction ---------------------------------------------------------
    def predict(self, template: str) -> Prediction | None:
        """Served from the first recorded run of a template on."""
        entry = self._templates.get(template)
        if entry is None:
            return None
        runtimes, sums = entry["runtimes"], entry["sums"]
        n = len(runtimes)
        mean = sums["runtime"] / n
        variance = sum((r - mean) ** 2 for r in runtimes) / n
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
            {"version": HISTORY_VERSION, "templates": self._templates},
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
            for template, entry in templates.items():
                sums = entry["sums"]
                # JSON keys are strings; stage ids are ints.
                sums["stages"] = {int(k): v for k, v in sums["stages"].items()}
                self._templates[str(template)] = entry
