"""Query-template fingerprints for demand history (DESIGN.md §16).

A *template* groups query instances that differ only in literal values:
``price > 10`` and ``price > 20`` run the same operators over the same
tables with near-identical per-stage resource shapes, so their traces
belong in one history bucket.  The fingerprint reuses the sharing
layer's canonical plan form (:mod:`repro.sharing.normalize`) with
``literals=False`` — constants are parameterized out while every
structural element (tables, column sets, join shape, aggregates, output
schema) still participates, and the catalog version plus the
plan-shaping ``QueryOptions`` fields guard against schema or option
changes colliding into one bucket.  DOP hints are deliberately *not*
part of the identity: a pre-granted re-run must record into the same
template its prediction came from.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from ..plan.cache import PreparedQuery, prepare
from ..sharing.normalize import NORMALIZE_VERSION, plan_key

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryOptions
    from ..data import Catalog

__all__ = ["options_template", "prepared_fingerprint", "template_fingerprint"]


def options_template(options: "QueryOptions") -> tuple:
    """The plan-shaping option fields, excluding DOP hints.

    ``initial_stage_dop`` / ``scan_stage_dop`` / ``stage_dops`` /
    ``initial_task_dop`` change how wide a query runs, not what work it
    does — and the predictor itself rewrites them at pre-grant time, so
    including them would fork every template into a warmup bucket and a
    pre-granted bucket that never share history.
    """
    return (
        options.join_distribution,
        options.broadcast_threshold_rows,
        tuple(sorted(options.shuffle_stage_tables)),
        options.partial_pushdown,
    )


def template_fingerprint(
    catalog: "Catalog", sql: str, options: "QueryOptions"
) -> str:
    """Stable hex template id for ``sql`` under ``options``."""
    return prepared_fingerprint(catalog, prepare(catalog, sql), options)


def prepared_fingerprint(
    catalog: "Catalog", prepared: PreparedQuery, options: "QueryOptions"
) -> str:
    """:func:`template_fingerprint` of an already-prepared query; derived
    once per (prepared entry, options template)."""
    template = options_template(options)
    fingerprint = prepared.templates.get(template)
    if fingerprint is None:
        identity = (
            catalog.version,
            NORMALIZE_VERSION,
            plan_key(prepared.logical, literals=False),
            template,
        )
        fingerprint = hashlib.sha256(repr(identity).encode()).hexdigest()[:16]
        prepared.templates[template] = fingerprint
    return fingerprint
