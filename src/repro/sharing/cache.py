"""Fingerprint-keyed result cache (DESIGN.md §14).

Keys are ``(catalog version, normalized plan fingerprint, QueryOptions
fingerprint)`` — the same keying discipline as the plan cache, one level
up: equal keys mean the *answer page* is reusable, so a repeat query
short-circuits admission, planning, and execution entirely.  The cache
is per-engine (catalog identity is implied by ownership) and bounded two
ways: :data:`RESULT_CACHE_BYTES` with LRU eviction, and an optional TTL
(``SharingConfig.cache_ttl``) in *virtual* seconds (clocks come from the
sim kernel, keeping same-seed runs byte-identical).  An expired entry
never hits again, so an insert past :data:`RESULT_CACHE_SWEEP` entries
drops the expired ones.  A catalog version bump
(``Catalog.register``) invalidates every entry from older versions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..pages import Page

#: Bytes of answer pages one engine's result cache holds (LRU beyond).
RESULT_CACHE_BYTES = 64 * 1024 * 1024
#: Entries past which an insert first drops the expired ones (a TTL hides
#: an entry; without this the answer to a text that never comes back
#: stays until the byte bound).  A live entry leaves only at the byte
#: bound, so no mix of texts thrashes the cache.
RESULT_CACHE_SWEEP = 64


@dataclass
class CacheEntry:
    page: Page
    cached_at: float
    size_bytes: int
    #: Scan pages a cache hit avoids re-reading (for the sharing stats).
    scan_pages: int


class ResultCache:
    """LRU + TTL result cache over materialised answer pages."""

    def __init__(self, kernel, ttl: float | None = None):
        self.kernel = kernel
        self.ttl = ttl
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> CacheEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self.ttl is not None and self.kernel.now - entry.cached_at > self.ttl:
            self._drop("expire", key, entry)
            return None
        self._entries.move_to_end(key)
        return entry

    def peek(self, key: tuple) -> bool:
        """Whether ``get(key)`` would hit — without touching LRU order
        or TTL expiry (``SharingManager.decide``)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        if self.ttl is not None and self.kernel.now - entry.cached_at > self.ttl:
            return False
        return True

    def put(self, key: tuple, page: Page, scan_pages: int = 0) -> None:
        size = page.size_bytes
        if size > RESULT_CACHE_BYTES:
            self.kernel.decisions.record(
                "cache", "skip_oversize", size_bytes=size,
                capacity_bytes=RESULT_CACHE_BYTES,
            )
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= old.size_bytes
        if self.ttl is not None and len(self._entries) >= RESULT_CACHE_SWEEP:
            # Time only moves on: drop each expired entry as a get of it
            # would.
            now = self.kernel.now
            for stale in [
                k for k, e in self._entries.items() if now - e.cached_at > self.ttl
            ]:
                self._drop("expire", stale, self._entries[stale])
        while self._entries and self.bytes + size > RESULT_CACHE_BYTES:
            evicted_key = next(iter(self._entries))
            self._drop("evict", evicted_key, self._entries[evicted_key])
        self._entries[key] = CacheEntry(
            page=page,
            cached_at=self.kernel.now,
            size_bytes=size,
            scan_pages=scan_pages,
        )
        self.bytes += size

    def purge_versions_before(self, version: int) -> None:
        """Drop entries keyed under an older catalog version."""
        stale = [k for k in self._entries if k[0] != version]
        for key in stale:
            self._drop("invalidate", key, self._entries[key])

    def _drop(self, why: str, key: tuple, entry: CacheEntry) -> None:
        """Remove one entry; ``why`` (evict / expire / invalidate) is the
        outcome of the ``cache`` decision recorded for it."""
        del self._entries[key]
        self.bytes -= entry.size_bytes
        self.kernel.decisions.record(
            "cache", why, size_bytes=entry.size_bytes, cached_at=entry.cached_at
        )
