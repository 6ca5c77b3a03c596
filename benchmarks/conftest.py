"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation (Section 6).  Absolute numbers come from the simulated cluster
and reduced scale factors; the *shapes* — who wins, by what factor, where
curves bend — are the reproduction target.  Run with ``-s`` to see the
reproduced tables/series; key numbers are also stored in each benchmark's
``extra_info`` (visible in ``--benchmark-json`` output).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import (
    Catalog,
    EVAL_SEED,
    render_curve_points,
    render_series,
    render_table,
)


@pytest.fixture(scope="session")
def eval_catalog() -> Catalog:
    """The shared evaluation dataset (generated once per session)."""
    return Catalog.tpch(scale=0.01, seed=EVAL_SEED)


@pytest.fixture(scope="session")
def small_catalog() -> Catalog:
    return Catalog.tpch(scale=0.005, seed=EVAL_SEED)


def emit(title: str, body: str) -> None:
    bar = "=" * max(30, len(title) + 10)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def emit_table(title: str, headers, rows) -> None:
    emit(title, render_table(headers, rows))


def emit_stage_curves(title: str, query, stages, use_processing_rate=True) -> None:
    lines = []
    for stage_id in stages:
        if use_processing_rate:
            series = query.tracker.processing_rate(stage_id)
        else:
            series = query.tracker.throughput(stage_id)
        lines.append(render_series(series, label=f"S{stage_id} rows/s"))
    markers = query.tracker.markers
    if markers:
        lines.append("markers: " + ", ".join(
            f"{m.kind}@{m.time:.1f}s S{m.stage}" for m in markers
        ))
    emit(title, "\n".join(lines))


def norm_rows(rows):
    """Rows normalised for comparison: floats to 10 significant digits
    (parallel aggregation changes summation order, not values)."""
    out = []
    for row in rows:
        out.append(
            tuple(
                float(f"{v:.10g}") if isinstance(v, float) else v for v in row
            )
        )
    return sorted(out)


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


try:
    import pytest_benchmark  # noqa: F401
except ImportError:  # CI installs no plugin: run once, keep extra_info, time nothing

    @pytest.fixture
    def benchmark():
        return SimpleNamespace(
            extra_info={}, pedantic=lambda fn, rounds=1, iterations=1: fn()
        )
