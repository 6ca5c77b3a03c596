"""SharingManager: the fold detector + result cache behind the route step.

With ``EngineConfig.sharing.enabled`` the engine's submission sequence
(``AccordionEngine._launch``) hands every admitted query to
:meth:`SharingManager.serve`.  :meth:`SharingManager.decide` — the one
routing decision, also consulted by admission to let queries that need
no new resources past the caps — picks, from the query's normalized
plan (:mod:`repro.sharing.normalize`):

1. **cached** — the result cache holds a live entry for (catalog version,
   plan fingerprint, options fingerprint): answer synchronously, no
   physical execution at all;
2. **folded** — a live :class:`FoldGroup` has an exactly-equal fingerprint,
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

from .cache import ResultCache
from .fold import FoldGroup, SharedConsumer
from .normalize import NormalizedQuery, plan_residual
from .residual import Residual

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import AccordionEngine
    from ..handle import Submission


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
        self.cache: ResultCache | None = None
        if self.config.result_cache_bytes > 0:
            self.cache = ResultCache(
                self.kernel,
                self.config.result_cache_bytes,
                ttl=self.config.cache_ttl,
            )
        #: Live fold groups by (catalog version, plan key, options key).
        self.groups: dict[tuple, FoldGroup] = {}
        self._catalog_version = engine.catalog.version
        metrics = engine.metrics
        self._folds = metrics.counter("sharing.folds")
        self._cache_hits = metrics.counter("sharing.cache_hits")
        self._cache_misses = metrics.counter("sharing.cache_misses")
        self._pages_saved = metrics.counter("sharing.pages_saved")
        self.carriers = 0
        self.unshared = 0
        self.consumers = 0
        self.detaches = 0

    # -- counters (read by reports/tests) -----------------------------------
    @property
    def folds(self) -> int:
        return self._folds.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def cache_misses(self) -> int:
        return self._cache_misses.value

    @property
    def pages_saved(self) -> int:
        return self._pages_saved.value

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
            if self.cache is not None:
                self.cache.purge_versions_before(version)

    # -- the route step ------------------------------------------------------
    def decide(self, sub: "Submission") -> Routing:
        """How ``sub`` would be served right now.  Changes nothing the
        routing itself depends on, so admission may ask before the
        engine acts on the same answer."""
        self._observe_catalog()
        normalized = sub.prepared.normalized
        if not normalized.shareable:
            return Routing("unshared")
        key = (self._catalog_version, normalized.key, sub.options.fingerprint())
        if self.cache is not None and self.cache.peek(key):
            return Routing("cached", key)
        if self.config.fold:
            group, residual = self._find_group(key, normalized)
            if group is not None:
                return Routing("folded", key, group, residual)
        return Routing("carrier", key)

    def serve(self, sub: "Submission") -> bool:
        """Route ``sub`` and act on it: answer from the cache, graft onto
        a live group, or open a new group.  Returns False for unshared
        plans, which the caller starts itself."""
        routing = self.decide(sub)
        sub.route = routing.route
        if routing.route == "unshared":
            self.unshared += 1
            return False
        self.consumers += 1
        sub.query_id = self.coordinator.next_query_id()
        key = routing.key
        entry = self.cache.get(key) if self.cache is not None else None
        if entry is not None:
            self._cache_hits.add()
            self._pages_saved.add(entry.scan_pages)
            consumer = SharedConsumer(sub, key, entry.scan_pages)
            self._trace("cache-hit", consumer)
            sub.complete(entry.page)
            return True
        if self.cache is not None:
            self._cache_misses.add()
        normalized = sub.prepared.normalized
        scan_pages = self._scan_page_estimate(normalized)
        consumer = SharedConsumer(sub, key, scan_pages, routing.residual)
        group = routing.group
        if group is not None:
            group.add(consumer)
            self._folds.add()
            self._pages_saved.add(scan_pages)
            self._trace("fold", consumer)
            if group.carrier is not None:
                sub.execution = group.carrier
                self.engine._record(sub)
            return True
        group = self.groups[key] = FoldGroup(self, key, normalized, sub)
        group.add(consumer)
        self.carriers += 1
        group.schedule_dispatch(self.config.fold_window if self.config.fold else 0.0)
        self._trace("carrier", consumer)
        return True

    def _find_group(self, key: tuple, normalized: NormalizedQuery):
        """An accepting group this plan can ride: exact fingerprint first,
        then carrier-output subsumption (conjunct-subset + rebase)."""
        group = self.groups.get(key)
        if group is not None and group.accepts:
            return group, Residual()
        options_key = key[2]
        for group_key in sorted(self.groups, key=repr):
            group = self.groups[group_key]
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
        if self.cache is not None:
            for consumer in group.consumers:
                if consumer.submission.succeeded:
                    self.cache.put(
                        consumer.cache_key,
                        consumer.submission.page,
                        scan_pages=consumer.scan_pages,
                    )

    def _on_detach(self, group: FoldGroup, consumer: SharedConsumer) -> None:
        self.detaches += 1
        workload = self.engine._workload
        if workload is not None and group.carrier is not None:
            workload.arbiter.unfold_consumer(
                group.carrier.id, consumer.submission.query_id
            )
        self._trace("detach", consumer)

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        out = {
            "consumers": self.consumers,
            "carriers": self.carriers,
            "folds": self.folds,
            "unshared": self.unshared,
            "detaches": self.detaches,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "pages_saved": self.pages_saved,
            "active_groups": len(self.groups),
        }
        if self.cache is not None:
            out["cache_entries"] = len(self.cache)
            out["cache_bytes"] = self.cache.bytes
            out["cache_evictions"] = self.cache.evictions
            out["cache_invalidations"] = self.cache.invalidations
        return out

    def snapshot(self) -> dict:
        """Counter snapshot for delta-based workload reporting."""
        return {
            "folds": self.folds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "pages_saved": self.pages_saved,
            "carriers": self.carriers,
            "unshared": self.unshared,
        }

    def _trace(self, event: str, consumer: SharedConsumer) -> None:
        tracer = self.kernel.tracer
        if not tracer.enabled:
            return
        sub = consumer.submission
        meta = {
            "query_id": sub.query_id,
            "role": sub.route,
            "pages_saved": consumer.pages_saved,
        }
        parent = None
        group = consumer.group
        if group is not None and group.carrier is not None:
            meta["carrier_id"] = group.carrier.id
            parent = tracer.root_for_query(group.carrier.id)
        tracer.instant(
            "sharing", f"{event} Q{sub.query_id}", parent=parent,
            node="coordinator", **meta,
        )
