"""Shared fixtures for the test suite.

The heavyweight fixtures (generated TPC-H catalogs) are session-scoped;
engines are cheap to build on top of a shared catalog.
"""

from __future__ import annotations

import functools
import gc
import multiprocessing
import sys
import weakref
from types import ModuleType

import pytest

from repro import AccordionEngine, EngineConfig, MemoryConfig
from repro.cluster import QueryExecution, QueryRecord
from repro.config import CostModel
from repro.data import Catalog
from repro.exec.memory import default_spill_root
from repro.exec.task import Task
from repro.pages import Page
from repro.parallel import shutdown_pools


TEST_SCALE = 0.005
TEST_SEED = 777

#: The engines built since the last test ended (``no_litter`` checks them).
_ENGINES: "weakref.WeakSet[AccordionEngine]" = weakref.WeakSet()
_engine_init = AccordionEngine.__init__


@functools.wraps(_engine_init)
def _tracked_init(self, *args, **kwargs):
    _engine_init(self, *args, **kwargs)
    _ENGINES.add(self)


AccordionEngine.__init__ = _tracked_init


@pytest.fixture(scope="session", autouse=True)
def no_session_litter():
    """Whatever ran, the session leaves behind no worker process and no
    query spill directory under the default spill root."""
    spill_root = default_spill_root(MemoryConfig())
    before = set(spill_root.glob("q*"))
    yield
    shutdown_pools()
    assert multiprocessing.active_children() == []
    assert set(spill_root.glob("q*")) <= before


def reachable(roots: list, kinds, skip: tuple = ()) -> list:
    """Objects of ``kinds`` reachable from ``roots`` without passing
    through an object of ``skip``, a class, a module or a module's
    globals."""
    seen = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
    stack, found = list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        elif not isinstance(obj, (type, ModuleType, *skip)):
            stack.extend(gc.get_referents(obj))
    return found


def assert_only_records(engine: AccordionEngine) -> None:
    """Every entry of ``coordinator.queries`` that is not running is the
    :class:`QueryRecord` its execution left once every task sealed
    (DESIGN.md §17), and holds no task, page or execution."""
    coordinator = engine.coordinator
    for query_id, query in coordinator.queries.items():
        if query_id in coordinator.running:
            continue
        assert isinstance(query, QueryRecord), query.describe()
        assert reachable([query], (Task, Page, QueryExecution)) == []


@pytest.fixture(autouse=True)
def no_litter():
    """Every engine the test built that has no query running holds no
    task slot, reservation or arbiter entry, and keeps only a record of
    each retired execution — which it does once every task is sealed
    (DESIGN.md §17), after the simulation has run what those tasks still
    had in flight.  One with nothing queued either holds no handle: no
    admitted query, no live workload record, no fold group."""
    yield
    engines = list(_ENGINES)
    _ENGINES.clear()
    for engine in engines:
        coordinator = engine.coordinator
        if coordinator.running:
            continue
        queries = coordinator.queries.values()
        engine.kernel.run(
            stop_when=lambda: all(isinstance(q, QueryRecord) for q in queries),
            max_events=1_000_000,
        )
        assert_only_records(engine)
        for node in engine.cluster.all_nodes():
            assert (node.name, node.task_count, node.reserved_bytes) == (node.name, 0, 0)
        workload = engine._workload
        if workload is not None:
            assert workload.arbiter.entries == {}
            if workload.admission.queue:
                continue
            from repro.workload.session import SubmissionRecord

            assert workload.admission.running == set()
            assert all(isinstance(r, SubmissionRecord) for r in workload.records)
        if engine.sharing is not None:
            assert engine.sharing.groups == {}


@pytest.fixture(scope="session")
def catalog() -> Catalog:
    """A small shared TPC-H catalog (lineitem ~30k rows)."""
    return Catalog.tpch(scale=TEST_SCALE, seed=TEST_SEED)


@pytest.fixture(scope="session")
def tiny_catalog() -> Catalog:
    """A very small catalog for expensive (e.g. property-based) tests."""
    return Catalog.tpch(scale=0.001, seed=TEST_SEED)


def make_engine(catalog: Catalog, **config_kwargs) -> AccordionEngine:
    config = EngineConfig(**config_kwargs) if config_kwargs else EngineConfig()
    return AccordionEngine(catalog, config=config)


def slow_engine(catalog: Catalog, multiplier: float = 1000.0, **kwargs) -> AccordionEngine:
    """Engine whose queries run long enough for runtime tuning to act.

    Pages are kept small so driver quanta stay well under a virtual second
    at the stretched cost scale.
    """
    kwargs.setdefault("page_row_limit", 256)
    config = EngineConfig(cost=CostModel().scaled(multiplier), **kwargs)
    return AccordionEngine(catalog, config=config)


@pytest.fixture()
def engine(catalog) -> AccordionEngine:
    return make_engine(catalog)


def run_until_cond(engine: AccordionEngine, predicate, max_seconds: float = 1e6) -> None:
    """Advance the simulation until ``predicate()`` holds (or fail)."""
    engine.kernel.run(until=engine.now + max_seconds, stop_when=predicate)
    assert predicate(), "condition not reached within the time limit"


def builds_ready(query, stage_id: int):
    """Predicate: every active task of the stage has its hash table built."""

    def check() -> bool:
        stage = query.stages[stage_id]
        active = stage.active_group
        return bool(active) and all(b.ready for t in active for b in t.bridges)

    return check


def norm_rows(rows, ndigits: int = 4):
    """Normalise rows for set comparison: floats rounded, rows sorted with
    a NULL (``None``) below every value of its column."""
    out = [
        tuple(round(v, ndigits) if isinstance(v, float) else v for v in row)
        for row in rows
    ]
    return sorted(out, key=lambda row: [(v is not None, v) for v in row])
