"""Wall-clock profiling of operator work (``repro.obs``).

The virtual clock explains *simulated* performance; this module explains
*real* Python performance.  When ``TraceConfig.profiling`` is on, the
driver wraps every operator ``process()``/``poll()`` call in a
``time.perf_counter_ns()`` pair and attributes the elapsed wall time to
``(query, stage, operator class)``.  The resulting report points perf
work at the hottest operator directly, instead of spelunking a cProfile
dump.

Profiling is observational only: it reads the host clock but never the
virtual clock, so virtual timings and answers are unaffected (the same
inertness contract as tracing; see ``obs.trace``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .report import render_table


@dataclass
class OpProfile:
    """Accumulated wall-clock attribution for one operator at one stage."""

    query_id: int | None
    stage: int
    operator: str
    calls: int = 0
    rows: int = 0
    wall_ns: int = 0
    #: Highest tracked state size observed for this operator (bytes);
    #: stays 0 for stateless operators.
    peak_bytes: int = 0

    @property
    def wall_seconds(self) -> float:
        return self.wall_ns / 1e9


class Profiler:
    """Registry of per-operator wall-clock samples.

    ``records`` holds the rows of queries that have not retired; a
    retiring query's rows leave with its execution (:meth:`retire`) and
    fold into ``retired_ns``, so the engine-wide :meth:`report` still
    counts them while ``records`` stays as large as the running set."""

    def __init__(self):
        self.records: dict[tuple, OpProfile] = {}
        #: Wall nanoseconds per operator class of every retired query.
        self.retired_ns: dict[str, int] = {}

    def process(self, op, page, query_id: int | None, stage: int, operator: str):
        """``op.process(page)``, attributed: its wall time, the page's rows
        and the peak tracked state of ``op`` (its own memory handle, or
        its join bridge's)."""
        wall_start = time.perf_counter_ns()
        result = op.process(page)
        handle = getattr(op, "memory", None)
        if handle is None:
            handle = getattr(getattr(op, "bridge", None), "memory", None)
        self.record(
            query_id,
            stage,
            operator,
            time.perf_counter_ns() - wall_start,
            page.num_rows,
            peak_bytes=handle.peak_bytes if handle is not None else 0,
        )
        return result

    def record(
        self,
        query_id: int | None,
        stage: int,
        operator: str,
        wall_ns: int,
        rows: int,
        peak_bytes: int = 0,
    ) -> None:
        key = (query_id, stage, operator)
        entry = self.records.get(key)
        if entry is None:
            entry = self.records[key] = OpProfile(query_id, stage, operator)
        entry.calls += 1
        entry.rows += rows
        entry.wall_ns += wall_ns
        if peak_bytes > entry.peak_bytes:
            entry.peak_bytes = peak_bytes

    def retire(self, query_id: int) -> list[OpProfile]:
        """Removes ``query_id``'s rows, folding their wall time into
        ``retired_ns``; returns them (its execution keeps them)."""
        rows = [self.records.pop(k) for k in [k for k in self.records if k[0] == query_id]]
        for e in rows:
            self.retired_ns[e.operator] = self.retired_ns.get(e.operator, 0) + e.wall_ns
        return rows

    def report(self, query_id: int | None = None, rows: list | None = None) -> "ProfileReport":
        """Entries for one query (its retired ``rows`` when given) or,
        with the retired totals, for everything; hottest first."""
        if rows is None:
            rows = [e for e in self.records.values() if query_id is None or e.query_id == query_id]
        entries = sorted(rows, key=lambda e: e.wall_ns, reverse=True)
        retired = dict(self.retired_ns) if query_id is None else {}
        return ProfileReport(entries=entries, query_id=query_id, retired_ns=retired)


@dataclass
class ProfileReport:
    """Wall-clock operator attribution, ready to print or post-process."""

    entries: list[OpProfile] = field(default_factory=list)
    query_id: int | None = None
    #: Wall nanoseconds per operator class of retired queries, whose
    #: rows are not among ``entries`` (an engine-wide report's).
    retired_ns: dict[str, int] = field(default_factory=dict)

    @property
    def total_wall_seconds(self) -> float:
        return sum(self.by_operator().values())

    def by_operator(self) -> dict[str, float]:
        """Wall seconds summed over stages (and retired queries), keyed
        by operator class."""
        out = dict(self.retired_ns)
        for entry in self.entries:
            out[entry.operator] = out.get(entry.operator, 0) + entry.wall_ns
        return {name: ns / 1e9 for name, ns in out.items()}

    def render(self, limit: int = 15) -> str:
        total = self.total_wall_seconds or 1.0
        rows = [
            (
                f"S{e.stage}",
                e.operator,
                e.calls,
                e.rows,
                f"{e.wall_seconds * 1e3:.2f}",
                f"{100 * e.wall_seconds / total:.1f}%",
            )
            for e in self.entries[:limit]
        ]
        header = ["stage", "operator", "calls", "rows", "wall ms", "share"]
        scope = "all queries" if self.query_id is None else f"query {self.query_id}"
        return (
            f"operator wall-clock profile ({scope}, "
            f"total {self.total_wall_seconds * 1e3:.1f} ms)\n"
            + render_table(header, rows)
        )
