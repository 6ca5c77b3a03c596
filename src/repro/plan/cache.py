"""Engine-level plan caches: the front-end memo and the physical plan cache.

Every ``engine.execute()`` used to re-lex, re-parse, re-analyze, and
re-plan its SQL even when the same query ran moments earlier (benchmarks
repeat each query; the auto-tuner and tests re-submit constantly).  Two
memos, both bounded per catalog version, remove that work:

* :func:`prepare` is *the* front end (parse -> analyze -> prune) and the
  only caller of ``parse`` on the submission path.  Its memo maps SQL
  text to a :class:`PreparedQuery` — the pruned logical plan, plus the
  sharing layer's normalized form and the predictor's literal-free
  template fingerprints, each derived at most once per entry.
* :data:`PLAN_CACHE` maps (SQL text, QueryOptions fingerprint,
  elasticity flag, topology) to the physical plan.  The physical plan is
  a pure *descriptor* — tasks instantiate operators from fragments at
  schedule time — so a plan keyed by exactly its inputs can be shared
  across queries **and engines**.

Catalogs carry a monotonically increasing ``version`` bumped by
``register()``, so registering/replacing a table invalidates everything
cached against the older version.  Entries are held per catalog in a
``WeakKeyDictionary`` — dropping the catalog drops its plans.

``EngineConfig.plan_cache=False`` bypasses both memos; hit/miss counts
of the physical cache surface per engine through ``engine.metrics``
(``plan_cache.hits`` / ``plan_cache.misses``).  Caching is bit-inert: a
cached plan is the same object the planner would rebuild, and the
identity test in ``tests/test_plan_cache.py`` pins answers, virtual
timings, and event counts with the cache on vs off.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import TYPE_CHECKING

from ..sql.parser import parse
from .logical_planner import LogicalPlanner
from .optimizer import prune_columns

if TYPE_CHECKING:  # pragma: no cover
    from ..data import Catalog
    from ..sharing.normalize import NormalizedQuery
    from .logical import LogicalNode

#: Per-catalog bound on cached plans; far above any real working set, it
#: only guards against unbounded growth from generated-SQL loops.
_PER_CATALOG_LIMIT = 256


class PlanCache:
    """Process-wide per-catalog-version memo, shared by all engines."""

    def __init__(self, limit: int = _PER_CATALOG_LIMIT):
        self.limit = limit
        # catalog -> (version, {key: plan})
        self._store: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def get(self, catalog: "Catalog", key):
        slot = self._store.get(catalog)
        if slot is None or slot[0] != catalog.version:
            return None
        return slot[1].get(key)

    def put(self, catalog: "Catalog", key, plan) -> None:
        slot = self._store.get(catalog)
        if slot is None or slot[0] != catalog.version:
            # First entry for this catalog version: stale-version plans
            # (catalog changed since they were built) are dropped here.
            slot = (catalog.version, {})
            self._store[catalog] = slot
        entries = slot[1]
        if len(entries) >= self.limit:
            entries.clear()
        entries[key] = plan

    def entries(self, catalog: "Catalog") -> int:
        """Number of live cached plans for ``catalog`` (introspection)."""
        slot = self._store.get(catalog)
        if slot is None or slot[0] != catalog.version:
            return 0
        return len(slot[1])

    def clear(self) -> None:
        self._store.clear()


#: The process-wide physical-plan cache used by every Coordinator.
PLAN_CACHE = PlanCache()
#: SQL text -> :class:`PreparedQuery`, behind :func:`prepare`.
FRONT_END = PlanCache()


class PreparedQuery:
    """Front-end output for one SQL text."""

    def __init__(self, logical: "LogicalNode"):
        #: The pruned logical plan.
        self.logical = logical
        #: options template -> template fingerprint (``repro.predict``).
        self.templates: dict[tuple, str] = {}

    @cached_property
    def normalized(self) -> "NormalizedQuery":
        """Canonical decomposition the sharing layer folds on."""
        from ..sharing.normalize import normalize_logical

        return normalize_logical(self.logical)


def prepare(catalog: "Catalog", sql: str, memo: bool = True) -> PreparedQuery:
    """Run the front end for ``sql``, at most once per text while the
    entry lives in the memo (``memo=False`` always re-runs it)."""
    if memo:
        prepared = FRONT_END.get(catalog, sql)
        if prepared is not None:
            return prepared
    prepared = PreparedQuery(prune_columns(LogicalPlanner(catalog).plan(parse(sql))))
    if memo:
        FRONT_END.put(catalog, sql, prepared)
    return prepared
