"""The engine-level front-end memo: one prepared entry per query text.

:func:`prepare` is *the* front end (parse -> analyze -> prune) and the
only caller of ``parse`` on the submission path.  Its memo,
:data:`FRONT_END`, maps SQL text to a :class:`PreparedQuery`: the pruned
logical plan and everything keyed by the query, each derived at most
once per entry (DESIGN.md §20):

* ``key`` — the fold and result-cache key (``repro.sharing``);
* ``template(shaping)`` — the literal-free template id the predictor
  keeps demand history under (``repro.predict``);
* ``plans`` — the physical plans, keyed by what the physical planner
  reads: the plan-shaping options and the elasticity flag.  A plan is a
  pure *descriptor* — the scheduler reads the DOP hints and the
  topology, and tasks instantiate operators from fragments — so one
  plan serves every query **and engine** with that key.

Catalogs carry a monotonically increasing ``version`` bumped by
``register()``, so registering/replacing a table invalidates every
entry prepared against the older version.  Entries are held per catalog
in a ``WeakKeyDictionary`` — dropping the catalog drops its plans — in a
:class:`~repro.util.LruMemo` of ``_PER_CATALOG_LIMIT`` entries.

``EngineConfig.plan_cache=False`` bypasses the memo and the plans;
hit/miss counts of the plans surface per engine through
``engine.metrics`` (``plan_cache.hits`` / ``plan_cache.misses``).
Caching is bit-inert: a cached plan is the same object the planner
would rebuild, and the identity test in ``tests/test_plan_cache.py``
pins answers, virtual timings, and event counts with the cache on vs
off.
"""

from __future__ import annotations

import hashlib
import weakref
from functools import cached_property
from typing import TYPE_CHECKING

from ..sql.parser import parse
from ..tree import identity
from ..util import LruMemo
from .logical_planner import LogicalPlanner
from .optimizer import prune_columns

if TYPE_CHECKING:  # pragma: no cover
    from ..data import Catalog
    from ..sharing.normalize import NormalizedQuery
    from .logical import LogicalNode
    from .physical import PhysicalPlan

#: Per-catalog bound on cached entries, least recently used out first:
#: the ``multi_tenant_adhoc`` benchmark's working set.  Its one-off
#: literal texts never hit again; the templates that repeat stay.
_PER_CATALOG_LIMIT = 64

#: Bump when the identity rules change: keys from different rule versions
#: must never collide in a persisted store (``history.json`` buckets
#: written under an older version are orphaned by design).
IDENTITY_VERSION = 2


class PlanCache:
    """Process-wide per-catalog-version memo, shared by all engines."""

    def __init__(self):
        # catalog -> (version, {key: entry})
        self._store: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def get(self, catalog: "Catalog", key):
        slot = self._store.get(catalog)
        if slot is None or slot[0] != catalog.version:
            return None
        return slot[1].get(key)

    def put(self, catalog: "Catalog", key, entry) -> None:
        slot = self._store.get(catalog)
        if slot is None or slot[0] != catalog.version:
            # First entry for this catalog version: stale-version entries
            # (catalog changed since they were built) are dropped here.
            slot = (catalog.version, LruMemo(_PER_CATALOG_LIMIT))
            self._store[catalog] = slot
        slot[1].put(key, entry)

    def entries(self, catalog: "Catalog") -> int:
        """Number of live cached entries for ``catalog`` (introspection)."""
        slot = self._store.get(catalog)
        if slot is None or slot[0] != catalog.version:
            return 0
        return len(slot[1])


#: SQL text -> :class:`PreparedQuery`, behind :func:`prepare`.
FRONT_END = PlanCache()


class PreparedQuery:
    """The one entry for a SQL text at one catalog version."""

    def __init__(self, version: int, logical: "LogicalNode"):
        self.version = version
        #: The pruned logical plan.
        self.logical = logical
        #: ``(options.shaping(), elasticity)`` -> physical plan.
        self.plans: dict[tuple, "PhysicalPlan"] = {}
        self._templates: dict[tuple, str] = {}

    @cached_property
    def key(self) -> tuple:
        """The fold and result-cache key: equal keys, equal answers."""
        return (IDENTITY_VERSION, identity(self.logical))

    @cached_property
    def normalized(self) -> "NormalizedQuery":
        """Canonical decomposition the sharing layer folds on."""
        from ..sharing.normalize import normalize_logical

        return normalize_logical(self.logical)

    def template(self, shaping: tuple) -> str:
        """Stable hex template id under the plan-shaping option values
        ``shaping`` (``QueryOptions.shaping()``; DESIGN.md §16).  Texts
        differing only in literal values share it: ``literals=False``
        leaves a typed hole where a constant stood.  The catalog version
        and ``shaping`` keep schema or option changes apart; the DOP
        hints are no part of it, so a pre-granted re-run records into
        the template its prediction came from."""
        template = self._templates.get(shaping)
        if template is None:
            key = (
                self.version,
                IDENTITY_VERSION,
                identity(self.logical, literals=False),
                identity(shaping),
            )
            template = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
            self._templates[shaping] = template
        return template


def prepare(catalog: "Catalog", sql: str, memo: bool = True) -> PreparedQuery:
    """Run the front end for ``sql``, at most once per text while the
    entry lives in the memo (``memo=False`` always re-runs it)."""
    if memo:
        prepared = FRONT_END.get(catalog, sql)
        if prepared is not None:
            return prepared
    logical = prune_columns(LogicalPlanner(catalog).plan(parse(sql)))
    prepared = PreparedQuery(catalog.version, logical)
    if memo:
        FRONT_END.put(catalog, sql, prepared)
    return prepared
