"""SharingManager: the fold detector + result cache behind the route step.

With ``EngineConfig.sharing.enabled`` the engine's submission sequence
(``AccordionEngine._launch``) hands every admitted query to
:meth:`SharingManager.serve`.  :meth:`SharingManager.decide` — the one
routing decision, also consulted by admission to let queries that need
no new resources past the caps — picks, from the query's prepared entry
(its fold key ``PreparedQuery.key`` and normalized plan,
:mod:`repro.sharing.normalize`):

1. **cached** — the result cache holds a live entry for (catalog version,
   fold key, ``identity(options)``): answer synchronously, no physical
   execution at all;
2. **folded** — a live :class:`FoldGroup` has an exactly-equal key,
   or one of the live groups' carriers *subsumes* this plan
   (:func:`plan_residual`): graft a consumer onto it — base-table pages
   are read once for the whole group (scan sharing falls out of running
   one physical plan);
3. **carrier** — otherwise start a new group whose carrier dispatches
   immediately (or after ``fold_window`` virtual seconds, giving
   closely-spaced lookalikes a chance to pile on).

Unshareable plans (Limit/TopN, unparseable decompositions) are
**unshared**: the engine starts their own physical execution.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from ..tree import identity
from .cache import ResultCache
from .fold import FoldGroup, SharedConsumer
from .normalize import NormalizedQuery, plan_residual
from .residual import Residual

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import AccordionEngine
    from ..handle import QueryHandle


class Routing(NamedTuple):
    """One routing decision (see :meth:`SharingManager.decide`)."""

    route: str
    key: tuple | None = None
    #: The group to graft onto, and the residual, for ``folded``.
    group: FoldGroup | None = None
    residual: Residual | None = None


class SharingManager:
    def __init__(self, engine: "AccordionEngine"):
        self.engine = engine
        self.kernel = engine.kernel
        self.config = engine.config.sharing
        self.coordinator = engine.coordinator
        self.catalog = engine.catalog
        self.cache = ResultCache(self.kernel, ttl=self.config.cache_ttl)
        #: Live fold groups by (catalog version, fold key, options key).
        self.groups: dict[tuple, FoldGroup] = {}
        self._catalog_version = engine.catalog.version
        self.decisions = self.kernel.decisions

    def _scan_page_estimate(self, normalized: NormalizedQuery) -> int:
        """Base-table pages one physical run of this plan reads."""
        page_rows = self.engine.config.page_row_limit
        return sum(
            math.ceil(self.catalog.table(t).num_rows / page_rows)
            for t in normalized.scan_tables
        )

    def _observe_catalog(self) -> None:
        version = self.catalog.version
        if version != self._catalog_version:
            self._catalog_version = version
            self.cache.purge_versions_before(version)

    # -- the route step ------------------------------------------------------
    def decide(self, sub: "QueryHandle") -> Routing:
        """How ``sub`` would be served right now.  Changes nothing the
        routing itself depends on, so admission may ask before the
        engine acts on the same answer."""
        self._observe_catalog()
        normalized = sub.prepared.normalized
        if not normalized.shareable:
            return Routing("unshared")
        key = (self._catalog_version, sub.prepared.key, identity(sub.options))
        if self.cache.peek(key):
            return Routing("cached", key)
        group, residual = self._find_group(key, normalized)
        if group is not None:
            return Routing("folded", key, group, residual)
        return Routing("carrier", key)

    def serve(self, sub: "QueryHandle") -> bool:
        """Route ``sub`` and act on it: answer from the cache, graft onto
        a live group, or open a new group.  Returns False for unshared
        plans, which the caller starts itself."""
        routing = self.decide(sub)
        sub.route = routing.route
        if routing.route == "unshared":
            self.decisions.record(
                "sharing", "unshared", tenant=sub.tenant, seq=sub.seq
            )
            return False
        sub.id = self.coordinator.next_query_id()
        sub.own_decisions(query_id=sub.id)
        key = routing.key
        entry = self.cache.get(key)
        if entry is not None:
            SharedConsumer(sub, key, entry.scan_pages)
            self.decisions.record(
                "sharing", "cache_hit", query_id=sub.id, tenant=sub.tenant,
                pages_saved=entry.scan_pages, cached_at=entry.cached_at,
            )
            sub.complete(entry.page)
            return True
        normalized = sub.prepared.normalized
        scan_pages = self._scan_page_estimate(normalized)
        consumer = SharedConsumer(sub, key, scan_pages, routing.residual)
        group = routing.group
        if group is not None:
            group.add(consumer)
            carrier = group.carrier
            self.decisions.record(
                "sharing", "fold", query_id=sub.id, tenant=sub.tenant,
                span=carrier and carrier.trace_span, lead=group.lead.id,
                pages_saved=scan_pages,
            )
            if carrier is not None:
                sub.execution = carrier
                self.engine._record(sub)
            return True
        group = self.groups[key] = FoldGroup(self, key, normalized, sub)
        group.add(consumer)
        group.schedule_dispatch(self.config.fold_window)
        carrier = group.carrier
        self.decisions.record(
            "sharing", "carrier", query_id=sub.id, tenant=sub.tenant,
            span=carrier and carrier.trace_span,
            execution=carrier and carrier.id,
        )
        return True

    def _find_group(self, key: tuple, normalized: NormalizedQuery):
        """An accepting group this plan can ride: exact fingerprint first,
        then carrier-output subsumption (conjunct-subset + rebase)."""
        group = self.groups.get(key)
        if group is not None and group.accepts:
            return group, Residual()
        options_key = key[2]
        # Oldest live group first (dict order is creation order).
        for group_key, group in self.groups.items():
            if not group.accepts or group_key == key:
                continue
            if group_key[0] != key[0] or group_key[2] != options_key:
                continue
            residual = plan_residual(normalized, group.normalized)
            if residual is not None:
                return group, residual
        return None, None

    # -- group lifecycle -----------------------------------------------------
    def _group_done(self, group: FoldGroup) -> None:
        if group.done:
            return
        group.done = True
        if self.groups.get(group.key) is group:
            del self.groups[group.key]
        for consumer in group.consumers:
            if consumer.submission.succeeded:
                self.cache.put(
                    consumer.cache_key,
                    consumer.submission.page,
                    scan_pages=consumer.scan_pages,
                )

    def _on_detach(self, group: FoldGroup, consumer: SharedConsumer) -> None:
        sub = consumer.submission
        carrier = group.carrier
        self.decisions.record(
            "sharing", "detach", query_id=sub.id, tenant=sub.tenant,
            span=carrier and carrier.trace_span, lead=group.lead.id,
            left=len(group.active_consumers),
        )

    # -- observability -------------------------------------------------------
    def gauges(self, since: int = 0) -> dict:
        """Live group/cache state, plus the routing decisions counted
        from log mark ``since`` (``sharing.*`` in ``engine.metrics``;
        ``WorkloadReport.sharing`` takes its keys from here)."""
        log = self.decisions
        counts = log.counts(since)
        folds = counts["sharing", "fold"]
        carriers = counts["sharing", "carrier"]
        hits = counts["sharing", "cache_hit"]
        return {
            "consumers": carriers + folds + hits,
            "carriers": carriers,
            "folds": folds,
            "unshared": counts["sharing", "unshared"],
            "detaches": counts["sharing", "detach"],
            "cache_hits": hits,
            # Every query the cache did not answer missed it.
            "cache_misses": carriers + folds,
            "pages_saved": log.tally("sharing", since=since),
            "active_groups": len(self.groups),
            "cache_entries": len(self.cache),
            "cache_bytes": self.cache.bytes,
            "cache_evictions": counts["cache", "evict"],
            "cache_invalidations": counts["cache", "invalidate"],
        }
