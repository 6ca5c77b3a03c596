"""Concurrent-query folding + shared result cache (DESIGN.md §14).

Public surface (re-exported from :mod:`repro`): enable with
``EngineConfig().with_sharing()``; inspect per-query outcomes through
``QueryHandle.sharing`` (a :class:`SharingInfo`).  Everything else here
is engine-internal plumbing behind ``engine.submit`` / ``submit_many``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import ResultCache
from .fold import FoldGroup, SharedConsumer
from .manager import SharingManager
from .normalize import NormalizedQuery, normalize_logical, plan_residual
from .residual import Residual, apply_residual

__all__ = [
    "FoldGroup",
    "NormalizedQuery",
    "Residual",
    "ResultCache",
    "SharedConsumer",
    "SharingInfo",
    "SharingManager",
    "apply_residual",
    "normalize_logical",
    "plan_residual",
]


@dataclass(frozen=True)
class SharingInfo:
    """How one query was served (``QueryHandle.sharing``).

    ``role`` is ``"unshared"`` (ran its own physical execution outside
    the sharing layer), ``"carrier"`` (ran the physical execution other
    queries folded onto), ``"folded"`` (grafted onto a carrier), or
    ``"cached"`` (served from the result cache)."""

    role: str = "unshared"
    #: Carrier query id this query's execution was folded into (folded
    #: consumers once dispatched; carriers report their own id).
    folded_into: int | None = None
    cache_hit: bool = False
    #: Base-table pages this query avoided re-reading via fold/cache.
    pages_saved: int = 0

    def __str__(self) -> str:
        if self.role == "cached":
            return f"cached (saved {self.pages_saved} scan pages)"
        if self.role == "folded":
            return (
                f"folded into Q{self.folded_into} "
                f"(saved {self.pages_saved} scan pages)"
            )
        return self.role


def sharing_info(query) -> SharingInfo:
    """The :class:`SharingInfo` of one :class:`~repro.handle.QueryHandle`."""
    shared = query.shared
    if shared is None:
        return SharingInfo()
    carrier = query.execution
    return SharingInfo(
        role=query.route,
        folded_into=carrier.id if carrier is not None else None,
        cache_hit=query.route == "cached",
        pages_saved=shared.pages_saved,
    )
