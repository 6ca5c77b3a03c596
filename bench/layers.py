"""The workload side's only door into the library's layer packages.

``run.py`` and ``workloads.py`` import from top-level ``repro`` alone, so
the tier-1 import lint keeps meaning something for benchmark code.  The
three things a workload needs that the top level does not export live
here, and every name imported is in its package's ``__all__`` (or is the
oracle entry point the issue names): the plan-replay spans, the
reference oracle, and worker-pool shutdown.
"""

from __future__ import annotations

from repro.parallel import shutdown_pools
from repro.plan import LogicalPlanner, prune_columns
from repro.reference import execute_reference
from repro.sql import parse

__all__ = ["oracle_rows", "replay_plan_spans", "shutdown_pools"]


def _logical(catalog, sql: str):
    return prune_columns(LogicalPlanner(catalog).plan(parse(sql)))


def oracle_rows(catalog, sql: str) -> list[tuple]:
    """The naive single-node reference executor's answer for ``sql``."""
    return execute_reference(_logical(catalog, sql), catalog).rows()


def replay_plan_spans(rec, catalog, plan_cold, texts) -> None:
    """Re-run the front end on a round's texts under spans.

    The engine plans inside ``engine.submit`` and offers no boundary
    between parse, logical and physical planning, so the three are timed
    by replaying them here: ``sql.parse`` and ``plan.logical`` through
    the packages' public functions, and ``plan.cold`` through
    ``plan_cold(sql)`` — a whole uncached ``Coordinator.plan_sql``.
    Physical planning is what is left of ``plan.cold`` after the other
    two.
    """
    for sql in texts:
        with rec.span("plan.replay", query=sql[:40]):
            with rec.span("sql.parse"):
                stmt = parse(sql)
            with rec.span("plan.logical"):
                prune_columns(LogicalPlanner(catalog).plan(stmt))
            with rec.span("plan.cold"):
                plan_cold(sql)
