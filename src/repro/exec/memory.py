"""Per-query memory accounting: the budget that makes spilling trigger
(DESIGN.md §13; the spill files themselves are :mod:`repro.exec.spill`).

One :class:`QueryMemory` exists per :class:`QueryExecution`.  Stateful
operators (join bridges, final aggregations, partial aggregations)
register an :class:`OperatorMemory` handle and report their tracked bytes
through it; the query-wide total is compared against the budget, so
whichever operator grows past the *query's* remaining headroom is the one
that spills.  The budget starts at ``MemoryConfig.query_budget_bytes``
and is overwritten by the workload arbiter's memory grant
(:meth:`ResourceArbiter.resize_memory`) — a trimmed grant makes in-flight
operators start spilling on their next growth, an enlarged one stops
further spills.

Accounting is always on (it feeds per-operator peak bytes in
``handle.profile()`` and the unbudgeted-peak measurements the benchmarks
ratchet against); only the budget comparison and the spill I/O cost have
any effect on execution, and both are no-ops when no budget is set.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..config import CostModel, MemoryConfig
from ..data.tpch.dataset_cache import CACHE_DIR_ENV

if TYPE_CHECKING:  # pragma: no cover
    from ..pages import Schema
    from .spill import SpillPartitions

#: Process-wide sequence making per-query spill directories unique even
#: across engines (two engines in one process both start query ids at 1).
_SPILL_SEQ = itertools.count(1)


def default_spill_root(config: MemoryConfig) -> Path:
    """Resolve the spill root: explicit config dir, else the repro cache
    dir (``REPRO_CACHE_DIR``), else the system temp dir."""
    if config.spill_dir is not None:
        return Path(config.spill_dir)
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    if cache_dir:
        return Path(cache_dir) / "spill"
    return Path(tempfile.gettempdir()) / "repro-spill"


class OperatorMemory:
    """One stateful operator's accounting handle (see module docstring)."""

    __slots__ = ("query", "name", "trace_parent", "tracked_bytes", "peak_bytes")

    def __init__(self, query: "QueryMemory", name: str, trace_parent: int | None):
        self.query = query
        self.name = name
        self.trace_parent = trace_parent
        self.tracked_bytes = 0
        self.peak_bytes = 0

    def update(self, tracked_bytes: int) -> bool:
        """Report this operator's current state size; returns True when
        the query is now over budget (a join or final aggregation then
        spills, a partial aggregation flushes its state downstream)."""
        delta = tracked_bytes - self.tracked_bytes
        self.tracked_bytes = tracked_bytes
        if tracked_bytes > self.peak_bytes:
            self.peak_bytes = tracked_bytes
        query = self.query
        query.total_bytes += delta
        if query.total_bytes > query.peak_bytes:
            query.peak_bytes = query.total_bytes
        budget = query.budget_bytes
        return budget is not None and query.total_bytes > budget

    def release(self) -> None:
        """Drop this operator's contribution (state handed off or freed)."""
        self.update(0)

    # -- spill events -----------------------------------------------------
    def spill_written(self, nbytes: int, partitions: int, what: str) -> float:
        """Record one spill write; returns its virtual I/O cost."""
        query = self.query
        query.spills += 1
        query.spilled_bytes += nbytes
        if query.metrics is not None:
            query.metrics.counter("spill.spills").add()
            query.metrics.counter("spill.bytes").add(nbytes)
            query.metrics.counter("spill.partitions").add(partitions)
        cost = nbytes * query.cost.spill_write_byte_cost
        self._span(f"{self.name} spill {what}", nbytes, partitions, cost)
        return cost

    def spill_read(self, nbytes: int, what: str) -> float:
        """Record reading spilled bytes back; returns the virtual cost."""
        cost = nbytes * self.query.cost.spill_read_byte_cost
        self._span(f"{self.name} read {what}", nbytes, None, cost)
        return cost

    def _span(
        self, label: str, nbytes: int, partitions: int | None, cost: float
    ) -> None:
        kernel = self.query.kernel
        if kernel is None:
            return
        tracer = kernel.tracer
        if tracer.enabled:
            now = kernel.now
            meta = {"bytes": nbytes, "query_id": self.query.query_id}
            if partitions is not None:
                meta["partitions"] = partitions
            tracer.complete(
                "spill", label, now, now + cost,
                parent=self.trace_parent, **meta,
            )


class QueryMemory:
    """Per-query budget, spill directory, and accounting roll-up."""

    def __init__(
        self,
        query_id: int,
        config: MemoryConfig,
        cost: CostModel,
        kernel=None,
        metrics=None,
    ):
        self.query_id = query_id
        self.config = config
        self.cost = cost
        self.kernel = kernel
        self.metrics = metrics
        self.budget_bytes = config.query_budget_bytes
        self.total_bytes = 0
        self.peak_bytes = 0
        self.spills = 0
        self.spilled_bytes = 0
        self._directory: Path | None = None

    # -- operator handles -------------------------------------------------
    def operator(self, name: str, trace_parent: int | None = None) -> OperatorMemory:
        return OperatorMemory(self, name, trace_parent)

    # -- budget (the arbiter's knob) --------------------------------------
    def set_budget(self, budget_bytes: int | None) -> None:
        self.budget_bytes = budget_bytes

    @property
    def over_budget(self) -> bool:
        return (
            self.budget_bytes is not None
            and self.total_bytes > self.budget_bytes
        )

    # -- spill directory lifecycle ----------------------------------------
    def spill_directory(self) -> Path:
        """This query's spill directory, created on first use only (a
        query that never spills touches no disk)."""
        if self._directory is None:
            root = default_spill_root(self.config)
            self._directory = root / f"q{self.query_id}-{next(_SPILL_SEQ)}"
            self._directory.mkdir(parents=True, exist_ok=True)
        return self._directory

    def partitions(
        self, name: str, schema: "Schema", keys: list[int], level: int = 0
    ) -> "SpillPartitions":
        """Fresh radix partitions in this query's spill directory; the
        spill file I/O (:mod:`repro.exec.spill`) loads with the first."""
        from .spill import SpillPartitions

        return SpillPartitions(self.spill_directory(), name, schema, keys, level=level)

    def cleanup(self) -> None:
        """Remove the query's spill directory (terminal states only —
        wired to ``QueryExecution.on_done`` so success, failure, and
        cancellation all clean up; recovery respawns keep it alive)."""
        if self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None

    def stats(self) -> dict:
        return {
            "budget_bytes": self.budget_bytes,
            "tracked_bytes": self.total_bytes,
            "peak_bytes": self.peak_bytes,
            "spills": self.spills,
            "spilled_bytes": self.spilled_bytes,
        }


@dataclass(frozen=True)
class MemoryRecord:
    """A retired query's final :meth:`QueryMemory.stats`, as its
    coordinator record keeps it (DESIGN.md §17)."""

    final: dict

    def stats(self) -> dict:
        return self.final
