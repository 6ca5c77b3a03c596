"""Shared fixtures and the figure recorder for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation (Section 6).  Absolute numbers come from the simulated cluster
and reduced scale factors; the *shapes* — who wins, by what factor, where
curves bend — are the reproduction target, checked by each test's asserts.

Every number a test reports goes through the ``record`` fixture, before
the asserts, as one row of ``FIGURES.json`` (figure, case, metric, paper
value, measured value, unit, whether the test passed).  A session that
ran every figure test to the end rewrites that file;
``tools/figures.py`` renders EXPERIMENTS.md's tables from it.  Run with
``-s`` to see each test's rows, throughput curves and plans.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import Catalog, EVAL_SEED, render_series, render_table

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tools"))
import figures  # noqa: E402

ROWS = pytest.StashKey[list]()  # on an item: the rows its test recorded
RAN = pytest.StashKey[bool]()  # on an item: its test body ran
DESELECTED = pytest.StashKey[bool]()  # on the config: -k / -m dropped a test


@pytest.fixture(scope="session")
def eval_catalog() -> Catalog:
    """The shared evaluation dataset (generated once per session)."""
    return Catalog.tpch(scale=0.01, seed=EVAL_SEED)


@pytest.fixture(scope="session")
def small_catalog() -> Catalog:
    return Catalog.tpch(scale=0.005, seed=EVAL_SEED)


@pytest.fixture
def record(request):
    """``record(figure, case, metric, measured, unit="s", digits=2,
    paper=None)`` adds one ``FIGURES.json`` row; ``measured`` is rounded
    to ``digits`` places (0: an integer)."""
    rows = request.node.stash[ROWS] = []

    def add(figure, case, metric, measured, unit="s", digits=2, paper=None):
        rows.append({
            "figure": figure, "case": str(case), "metric": metric,
            "paper": paper, "measured": round(measured, digits or None),
            "unit": unit, "passed": False,
        })

    yield add
    for figure in dict.fromkeys(r["figure"] for r in rows):
        emit(figure, render_table(*figures.pivot([r for r in rows if r["figure"] == figure])))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call":
        item.stash[RAN] = True
        for row in item.stash.get(ROWS, ()):
            row["passed"] = report.passed
    return report


def pytest_deselected(items):
    items[0].config.stash[DESELECTED] = True


def pytest_sessionfinish(session):
    """Rewrite FIGURES.json only after a run of every figure test: a
    selected, deselected or stopped run leaves the file alone."""
    items = [item for item in session.items if item.path.parent == HERE]
    complete = (
        not session.config.stash.get(DESELECTED, False)
        and not any("::" in arg for arg in session.config.args)
        and {item.path for item in items} == set(HERE.glob("test_*.py"))
        and all(RAN in item.stash for item in items)
    )
    if complete:
        rows = [row for item in items for row in item.stash.get(ROWS, ())]
        figures.FIGURES.write_text(figures.dump(rows), encoding="utf-8")


def emit(title: str, body: str) -> None:
    bar = "=" * max(30, len(title) + 10)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


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
    (parallel aggregation changes summation order, not values), rows
    sorted with a NULL (``None``) below every value of its column."""
    out = [
        tuple(float(f"{v:.10g}") if isinstance(v, float) else v for v in row)
        for row in rows
    ]
    return sorted(out, key=lambda row: [(v is not None, v) for v in row])
