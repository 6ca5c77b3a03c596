"""Engine-level plan cache: hits, misses, invalidation, and bit-inertness."""

from __future__ import annotations

from conftest import TEST_SEED, make_engine, norm_rows

from repro import AccordionEngine, EngineConfig, QueryOptions
from repro.data import Catalog
from repro.data.tpch.queries import QUERIES
from repro.plan.cache import PLAN_CACHE


def fresh_catalog() -> Catalog:
    """A private catalog object per test: the plan cache keys on catalog
    identity, so sharing the session fixture would leak entries between
    tests.  Tables come from the dataset memo, so this is cheap."""
    return Catalog.tpch(scale=0.001, seed=TEST_SEED)


def counters(engine) -> tuple[int, int]:
    c = engine.coordinator
    return c.plan_cache_hits, c.plan_cache_misses


def test_repeated_query_hits_cache():
    catalog = fresh_catalog()
    engine = make_engine(catalog)
    engine.execute(QUERIES["Q1"])
    assert counters(engine) == (0, 1)
    engine.execute(QUERIES["Q1"])
    assert counters(engine) == (1, 1)
    assert PLAN_CACHE.entries(catalog) == 1
    # The per-engine counters surface through the metrics registry.
    snapshot = engine.metrics.snapshot()
    assert snapshot["plan_cache.hits"] == 1
    assert snapshot["plan_cache.misses"] == 1


def test_catalog_registration_invalidates():
    catalog = fresh_catalog()
    engine = make_engine(catalog)
    engine.execute(QUERIES["Q1"])
    assert PLAN_CACHE.entries(catalog) == 1
    # Re-registering any table bumps the catalog version: every plan built
    # against the old version must miss from now on.
    catalog.register(catalog.table("nation"))
    assert PLAN_CACHE.entries(catalog) == 0
    engine.execute(QUERIES["Q1"])
    assert counters(engine) == (0, 2)


def test_differing_options_miss():
    catalog = fresh_catalog()
    engine = make_engine(catalog)
    engine.execute(QUERIES["Q3"], QueryOptions())
    engine.execute(QUERIES["Q3"], QueryOptions(initial_stage_dop=2))
    # Same SQL, different options: both are misses and both are cached.
    assert counters(engine) == (0, 2)
    assert PLAN_CACHE.entries(catalog) == 2
    engine.execute(QUERIES["Q3"], QueryOptions(initial_stage_dop=2))
    assert counters(engine) == (1, 2)


def test_cross_engine_reuse_over_same_catalog():
    catalog = fresh_catalog()
    first = make_engine(catalog)
    result = first.execute(QUERIES["Q3"])
    second = make_engine(catalog)
    again = second.execute(QUERIES["Q3"])
    assert counters(second) == (1, 0)
    # Hit/miss counters are per-engine state: the second engine's hit must
    # not leak into the first engine's registry.
    assert counters(first) == (0, 1)
    assert first.metrics.snapshot()["plan_cache.hits"] == 0
    assert second.metrics.snapshot()["plan_cache.hits"] == 1
    assert norm_rows(again.rows) == norm_rows(result.rows)


def test_plan_cache_disabled_bypasses():
    catalog = fresh_catalog()
    engine = make_engine(catalog, plan_cache=False)
    engine.execute(QUERIES["Q1"])
    engine.execute(QUERIES["Q1"])
    assert counters(engine) == (0, 0)
    assert PLAN_CACHE.entries(catalog) == 0


def test_cached_plan_gives_identical_answers():
    catalog = fresh_catalog()
    cached = make_engine(catalog)
    baseline = make_engine(catalog, plan_cache=False)
    for name in ("Q1", "Q3", "Q5"):
        warm = cached.execute(QUERIES[name])      # miss, populates
        hot = cached.execute(QUERIES[name])       # hit, reuses the plan
        cold = baseline.execute(QUERIES[name])    # never touches the cache
        assert norm_rows(hot.rows) == norm_rows(warm.rows) == norm_rows(cold.rows)
    assert cached.coordinator.plan_cache_hits == 3


def test_engine_config_defaults_enable_cache():
    assert EngineConfig().plan_cache is True


# -- the front end runs once per submission ----------------------------------
def full_stack_engine(catalog):
    config = EngineConfig().with_workload().with_sharing().with_prediction()
    return AccordionEngine(catalog, config=config)


def count_parse(monkeypatch) -> list[str]:
    """Count front-end runs: wrap ``parse`` under every name it is bound
    to inside ``repro`` (modules import it both lazily and at load)."""
    import sys

    from repro.sql import parser

    original = parser.parse
    parsed: list[str] = []

    def counting(sql):
        parsed.append(sql)
        return original(sql)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "parse", None) is original:
            monkeypatch.setattr(module, "parse", counting)
    return parsed


def test_fresh_literal_submission_runs_front_end_once(monkeypatch):
    engine = full_stack_engine(fresh_catalog())
    session = engine.session("bi", deadline=1e6)
    template = "select count(*) from lineitem where l_quantity < {}"
    session.submit(template.format(10)).result()  # warm the template's history
    parsed = count_parse(monkeypatch)
    handle = session.submit(template.format(11))
    assert handle.result().num_rows == 1
    assert parsed == [template.format(11)]


def test_text_keyed_memos_stay_bounded():
    from repro.plan.cache import FRONT_END

    catalog = fresh_catalog()
    engine = full_stack_engine(catalog)
    session = engine.session("adhoc")
    for literal in range(600):
        session.submit(
            f"select count(*) from nation where n_nationkey < {literal}"
        ).result()
    assert 0 < FRONT_END.entries(catalog) <= FRONT_END.limit
    assert 0 < PLAN_CACHE.entries(catalog) <= PLAN_CACHE.limit
    # Nothing per-engine remembers one entry per distinct text either.
    for owner in (engine, engine.sharing, engine.predict_service,
                  engine.workload.admission, engine.workload.arbiter):
        for name, value in vars(owner).items():
            if isinstance(value, (dict, set)):
                assert len(value) <= FRONT_END.limit, (type(owner).__name__, name)
