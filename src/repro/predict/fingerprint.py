"""Query-template fingerprints for demand history (DESIGN.md §16).

A *template* groups query instances that differ only in literal values:
``price > 10`` and ``price > 20`` run the same operators over the same
tables with near-identical per-stage resource shapes, so their traces
belong in one history bucket.  The template id hashes the plan's
:func:`~repro.tree.identity` with ``literals=False`` — constants leave a
typed hole while every structural element (tables, column sets, join
shape, aggregates, output schema) still participates — together with
the catalog version and the plan-shaping ``QueryOptions`` fields, which
guard against schema or option changes colliding into one bucket.  DOP
hints are deliberately *not* part of the identity: a pre-granted re-run
must record into the same template its prediction came from.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from ..plan.cache import PreparedQuery, prepare
from ..sharing.normalize import NORMALIZE_VERSION
from ..tree import identity

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryOptions
    from ..data import Catalog

__all__ = ["prepared_fingerprint", "template_fingerprint"]


def template_fingerprint(
    catalog: "Catalog", sql: str, options: "QueryOptions"
) -> str:
    """Stable hex template id for ``sql`` under ``options``."""
    return prepared_fingerprint(catalog, prepare(catalog, sql), options)


def prepared_fingerprint(
    catalog: "Catalog", prepared: PreparedQuery, options: "QueryOptions"
) -> str:
    """:func:`template_fingerprint` of an already-prepared query; derived
    once per (prepared entry, plan-shaping options)."""
    shaping = tuple(options.plan_shaping().values())
    fingerprint = prepared.templates.get(shaping)
    if fingerprint is None:
        key = (
            catalog.version,
            NORMALIZE_VERSION,
            identity(prepared.logical, literals=False),
            identity(shaping),
        )
        fingerprint = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
        prepared.templates[shaping] = fingerprint
    return fingerprint
