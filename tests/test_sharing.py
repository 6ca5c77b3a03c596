"""Concurrent-query folding + shared result cache (DESIGN.md §14).

Covers the fold detector (normalization, subsumption, residuals), the
result cache (hit/TTL/capacity/invalidation), the cancellation semantics
of shared executions, workload-layer accounting (no double billing,
priority adoption), and the bit-identity contract: a folded or cached
query returns exactly the rows an isolated run returns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AccordionEngine,
    EngineConfig,
    QueryCancelledError,
    QueryFailedError,
    SharingConfig,
    SharingInfo,
    Workload,
    PoissonArrivals,
)
from repro.data import Catalog
from repro.sharing import normalize_logical, plan_residual
from repro.plan.logical_planner import LogicalPlanner
from repro.plan.optimizer import prune_columns
from repro.sql.parser import parse


def sharing_engine(catalog, **sharing_kwargs) -> AccordionEngine:
    config = EngineConfig().with_sharing(**sharing_kwargs)
    return AccordionEngine(catalog, config=config)


def isolated_rows(catalog, sql: str):
    return AccordionEngine(catalog).execute(sql).rows


def normalize(catalog, sql: str):
    logical = prune_columns(LogicalPlanner(catalog).plan(parse(sql)))
    return normalize_logical(logical)


# -- normalization ----------------------------------------------------------
class TestNormalization:
    def test_conjunct_order_is_canonical(self, catalog):
        a = normalize(catalog,
                      "select l_orderkey from lineitem "
                      "where l_quantity < 10 and l_orderkey < 500")
        b = normalize(catalog,
                      "select l_orderkey from lineitem "
                      "where l_orderkey < 500 and l_quantity < 10")
        assert a.key == b.key

    def test_flipped_comparison_is_canonical(self, catalog):
        a = normalize(catalog,
                      "select l_orderkey from lineitem where l_quantity < 10")
        b = normalize(catalog,
                      "select l_orderkey from lineitem where 10 > l_quantity")
        assert a.key == b.key

    def test_different_predicates_do_not_collide(self, catalog):
        a = normalize(catalog,
                      "select l_orderkey from lineitem where l_quantity < 10")
        b = normalize(catalog,
                      "select l_orderkey from lineitem where l_quantity < 11")
        assert a.key != b.key

    def test_limit_and_topn_not_shareable(self, catalog):
        limited = normalize(catalog, "select l_orderkey from lineitem limit 5")
        topn = normalize(catalog,
                         "select l_orderkey from lineitem "
                         "order by l_orderkey limit 5")
        assert not limited.shareable
        assert not topn.shareable

    def test_subset_conjuncts_produce_residual(self, catalog):
        broad = normalize(catalog,
                          "select l_orderkey, l_quantity from lineitem "
                          "where l_quantity < 10")
        narrow = normalize(catalog,
                           "select l_orderkey from lineitem "
                           "where l_quantity < 10 and l_orderkey < 100")
        residual = plan_residual(narrow, broad)
        assert residual is not None
        assert residual.predicate is not None
        # The reverse direction must NOT fold: the narrow carrier has
        # already dropped rows the broad query needs.
        assert plan_residual(broad, narrow) is None


# -- folding bit-identity ---------------------------------------------------
class TestFolding:
    def test_exact_fold_bit_identical(self, catalog):
        engine = sharing_engine(catalog)
        sql = "select count(*) from lineitem"
        h1, h2 = engine.submit_many([sql, sql])
        assert h1.sharing.role == "carrier"
        assert h2.sharing.role == "folded"
        rows = isolated_rows(catalog, sql)
        assert h1.result().rows == rows
        assert h2.result().rows == rows
        assert h2.sharing.folded_into == h1.execution.id
        assert h2.sharing.pages_saved > 0

    def test_residual_filter_fold_bit_identical(self, catalog):
        engine = sharing_engine(catalog)
        broad = ("select l_orderkey, l_quantity from lineitem "
                 "where l_quantity < 10")
        narrow = ("select l_orderkey from lineitem "
                  "where l_quantity < 10 and l_orderkey < 100")
        h1 = engine.submit(broad)
        h2 = engine.submit(narrow)
        assert h2.sharing.role == "folded"
        assert h1.result().rows == isolated_rows(catalog, broad)
        assert h2.result().rows == isolated_rows(catalog, narrow)

    def test_residual_aggregation_fold_bit_identical(self, catalog):
        engine = sharing_engine(catalog)
        detail = ("select l_returnflag, l_quantity from lineitem "
                  "where l_quantity < 30")
        agg = ("select l_returnflag, count(*), min(l_quantity), "
               "max(l_quantity) from lineitem where l_quantity < 30 "
               "group by l_returnflag")
        h1 = engine.submit(detail)
        h2 = engine.submit(agg)
        assert h2.sharing.role == "folded"
        assert h1.result().rows == isolated_rows(catalog, detail)
        assert h2.result().rows == isolated_rows(catalog, agg)

    def test_residual_integer_sum_is_exact_beyond_float64(self, catalog):
        """The residual re-aggregation shares ``grouped_sum`` with the
        engine; both are held to python-int arithmetic, not to each other."""
        engine = sharing_engine(catalog)
        detail = ("select o_orderstatus, o_orderkey, o_custkey from orders "
                  "where o_orderkey > 0")
        agg = ("select o_orderstatus, sum(o_orderkey * o_custkey * 100000003) "
               "from orders where o_orderkey > 0 group by o_orderstatus")
        engine.submit(detail)
        folded = engine.submit(agg)
        assert folded.sharing.role == "folded"
        orders = catalog.table("orders")
        expected: dict = {}
        for status, key, cust in zip(
            orders.column("o_orderstatus").tolist(),
            orders.column("o_orderkey").tolist(),
            orders.column("o_custkey").tolist(),
        ):
            expected[status] = expected.get(status, 0) + key * cust * 100000003
        assert all(float(total) != total for total in expected.values())
        assert sorted(folded.result().rows) == sorted(expected.items())
        assert sorted(isolated_rows(catalog, agg)) == sorted(expected.items())

    def test_conjunct_order_regression_folds(self, catalog):
        """Two textually different but semantically identical filters must
        land in the same fold group (the normalization bugfix)."""
        engine = sharing_engine(catalog)
        h1 = engine.submit("select l_orderkey from lineitem "
                           "where l_quantity < 10 and l_orderkey < 500")
        h2 = engine.submit("select l_orderkey from lineitem "
                           "where l_orderkey < 500 and l_quantity < 10")
        assert h2.sharing.role == "folded"
        assert h1.result().rows == h2.result().rows

    def test_fold_window_batches_lookalikes(self, catalog):
        engine = sharing_engine(catalog, fold_window=0.5)
        h1 = engine.submit("select count(*) from orders")
        assert h1.execution is None  # still inside the window
        h2 = engine.submit("select count(*) from orders")
        assert h2.sharing.role == "folded"
        engine.run_for(1.0)
        assert h1.execution is not None
        rows = isolated_rows(catalog, "select count(*) from orders")
        assert h1.result().rows == rows
        assert h2.result().rows == rows

    def test_unshareable_queries_bypass_sharing(self, catalog):
        engine = sharing_engine(catalog)
        h = engine.submit("select l_orderkey from lineitem "
                          "order by l_orderkey limit 5")
        assert h.sharing.role == "unshared"
        assert engine.metrics.snapshot()["sharing.unshared"] == 1

    def test_sharing_disabled_is_inert(self, catalog):
        engine = AccordionEngine(catalog)
        assert engine.sharing is None
        h = engine.submit("select count(*) from lineitem")
        assert h.sharing == SharingInfo()
        assert h.sharing.role == "unshared"


# -- cancellation semantics -------------------------------------------------
class TestCancellation:
    def test_cancel_folded_consumer_keeps_carrier(self, catalog):
        engine = sharing_engine(catalog)
        sql = "select count(*) from lineitem"
        h1, h2 = engine.submit_many([sql, sql])
        h2.cancel("user aborted")
        assert h2.state == "cancelled"
        assert not h1.finished
        assert h1.result().rows == isolated_rows(catalog, sql)
        with pytest.raises(QueryCancelledError):
            h2.result()

    def test_cancel_creating_consumer_keeps_execution(self, catalog):
        engine = sharing_engine(catalog)
        sql = "select count(*) from lineitem"
        h1, h2 = engine.submit_many([sql, sql])
        carrier = h1.execution
        h1.cancel("creator bailed")
        assert h1.state == "cancelled"
        assert not carrier.finished
        assert h2.result().rows == isolated_rows(catalog, sql)
        assert carrier.succeeded

    def test_cancel_all_consumers_cancels_execution(self, catalog):
        engine = sharing_engine(catalog)
        sql = "select count(*) from lineitem"
        h1, h2 = engine.submit_many([sql, sql])
        carrier = h1.execution
        h1.cancel()
        h2.cancel()
        engine.run_for(10.0)
        assert carrier.cancelled

    def test_cancel_inside_fold_window_cancels_dispatch(self, catalog):
        engine = sharing_engine(catalog, fold_window=1.0)
        h = engine.submit("select count(*) from lineitem")
        h.cancel("never mind")
        engine.run_for(5.0)
        # No physical execution was ever dispatched.
        assert h.execution is None
        assert h.state == "cancelled"
        assert len(engine.coordinator.queries) == 0

    def test_carrier_cancellation_propagates(self, catalog):
        engine = sharing_engine(catalog)
        sql = "select count(*) from lineitem"
        h1, h2 = engine.submit_many([sql, sql])
        h1.execution.cancel("admin killed it")
        engine.run_for(10.0)
        assert h1.state == "cancelled"
        assert h2.state == "cancelled"
        with pytest.raises(QueryCancelledError):
            h2.result()


# -- result cache -----------------------------------------------------------
class TestResultCache:
    def test_cache_hit_after_completion(self, catalog):
        engine = sharing_engine(catalog)
        sql = "select count(*) from lineitem"
        rows = engine.execute(sql).rows
        h = engine.submit(sql)
        assert h.sharing.role == "cached"
        assert h.sharing.cache_hit
        assert h.finished  # served synchronously, zero virtual time
        assert h.result().rows == rows
        assert engine.metrics.snapshot()["sharing.cache_hits"] == 1

    def test_cache_ttl_expiry(self, catalog):
        engine = sharing_engine(catalog, cache_ttl=5.0)
        sql = "select count(*) from lineitem"
        engine.execute(sql)
        engine.run_for(10.0)
        h = engine.submit(sql)
        assert h.sharing.role == "carrier"  # entry expired, re-executes
        assert engine.decisions.count("cache", "expire") == 1

    def test_catalog_register_invalidates_cache(self):
        catalog = Catalog.tpch(scale=0.001, seed=11)
        engine = sharing_engine(catalog)
        sql = "select count(*) from nation"
        rows = engine.execute(sql).rows
        catalog.register(catalog.table("nation"))  # version bump
        h = engine.submit(sql)
        assert h.sharing.role == "carrier"  # stale entry was purged
        assert h.result().rows == rows
        assert engine.metrics.snapshot()["sharing.cache_invalidations"] >= 1

    def test_capacity_eviction_is_lru(self, catalog):
        engine = sharing_engine(catalog, result_cache_bytes=100)
        a = "select count(*) from lineitem"
        b = "select count(*) from orders"
        engine.execute(a)
        engine.execute(b)  # evicts a (capacity fits one small page)
        assert engine.metrics.snapshot()["sharing.cache_evictions"] >= 1
        h = engine.submit(a)
        assert h.sharing.role == "carrier"

    def test_cache_disabled(self, catalog):
        engine = sharing_engine(catalog, result_cache_bytes=0)
        sql = "select count(*) from lineitem"
        engine.execute(sql)
        h = engine.submit(sql)
        assert h.sharing.role == "carrier"
        assert engine.sharing.cache is None


# -- failure propagation ----------------------------------------------------
class TestFailurePropagation:
    def test_failed_carrier_fails_all_consumers(self, catalog):
        engine = sharing_engine(catalog)
        sql = "select count(*) from lineitem"
        h1, h2 = engine.submit_many([sql, sql])
        carrier = h1.execution
        carrier.fail(QueryFailedError("node exploded", query_id=carrier.id))
        engine.run_for(1.0)
        assert h1.state == "failed"
        assert h2.state == "failed"
        with pytest.raises(QueryFailedError):
            h1.result()


# -- workload integration ---------------------------------------------------
class TestWorkloadIntegration:
    def test_folded_consumers_do_not_double_bill(self, catalog):
        config = (EngineConfig()
                  .with_workload(max_concurrent_queries=1)
                  .with_sharing())
        engine = AccordionEngine(catalog, config=config)
        session = engine.session("bi")
        sql = "select count(*) from lineitem"
        handles = [session.submit(sql) for _ in range(4)]
        for h in handles:
            h.result()
        admission = engine.workload.admission
        assert admission.violations == []
        stats = engine.metrics.snapshot()
        assert stats["workload.admitted"] == 4
        assert stats["workload.running"] == 0
        assert stats["workload.admitted_cores"] == 0
        # One physical execution served all four submissions.
        assert stats["sharing.carriers"] == 1
        assert stats["sharing.folds"] >= 2

    def test_shared_execution_adopts_max_priority_min_deadline(self, catalog):
        config = EngineConfig().with_workload().with_sharing(fold_window=0.5)
        engine = AccordionEngine(catalog, config=config)
        low = engine.session("etl", priority=0.0)
        high = engine.session("bi", priority=5.0, deadline=100.0)
        h1 = low.submit("select sum(l_quantity) from lineitem "
                        "group by l_orderkey")
        h2 = high.submit("select sum(l_quantity) from lineitem "
                         "group by l_orderkey")
        engine.run_for(0.5001)  # just past the fold window
        carrier = h1.execution
        entry = engine.workload.arbiter.entries[carrier.id]
        assert entry.priority == 5.0
        assert entry.deadline_at == 100.0
        h2.cancel("bail")
        assert entry.priority == 0.0
        assert entry.deadline_at is None
        assert h1.result().num_rows > 0

    def test_same_seed_workload_reports_byte_identical(self, catalog):
        def run():
            config = (EngineConfig()
                      .with_workload(max_concurrent_queries=4)
                      .with_sharing(fold_window=0.1))
            engine = AccordionEngine(catalog, config=config)
            workload = Workload(engine, seed=42)
            workload.add_tenant(
                "bi",
                ["select count(*) from lineitem",
                 "select count(*) from orders"],
                PoissonArrivals(rate=5.0, count=10),
            )
            return workload.run().render()

        assert run() == run()

    def test_overlapping_burst_folds_caches_and_doubles_effective_qps(self, catalog):
        """A seeded two-tenant dashboard burst far above the unshared
        service rate (so the horizon measures execution, not arrivals):
        exact repeats, a broad detail query, and narrower / aggregating
        variants that fold onto it through residual operators."""
        mix = [
            "select count(*) from lineitem",
            "select l_returnflag, count(*), min(l_quantity) from lineitem "
            "where l_quantity < 30 group by l_returnflag",
            "select l_orderkey, l_quantity from lineitem where l_quantity < 10",
            "select l_orderkey from lineitem "
            "where l_quantity < 10 and l_orderkey < 1000",
            "select o_orderstatus, count(*) from orders group by o_orderstatus",
        ]

        def run(sharing: bool):
            config = EngineConfig().with_workload(max_concurrent_queries=2)
            if sharing:
                config = config.with_sharing(fold_window=0.05)
            workload = Workload(AccordionEngine(catalog, config=config), seed=20250807)
            for tenant in ("bi", "dashboards"):
                workload.add_tenant(tenant, mix, PoissonArrivals(rate=100.0, count=20))
            report = workload.run()
            return report, [h.result().rows for h in workload.handles]

        unshared, unshared_rows = run(sharing=False)
        shared, shared_rows = run(sharing=True)
        assert shared.sharing["folds"] >= 1
        assert shared.sharing["cache_hits"] >= 1
        assert len(shared_rows) == 40 and shared_rows == unshared_rows
        # 5.9x measured on this catalog.
        assert shared.effective_qps > 2.0 * unshared.effective_qps

    def test_report_includes_sharing_section(self, catalog):
        config = EngineConfig().with_workload().with_sharing(fold_window=0.1)
        engine = AccordionEngine(catalog, config=config)
        workload = Workload(engine, seed=7)
        workload.add_tenant(
            "bi", ["select count(*) from lineitem"],
            PoissonArrivals(rate=20.0, count=8),
        )
        report = workload.run()
        assert report.sharing  # populated when sharing is enabled
        assert report.sharing["folds"] + report.sharing["cache_hits"] > 0
        assert report.effective_qps > 0
        assert "sharing:" in report.render()
        assert report.to_dict()["sharing"] == report.sharing


# -- public API -------------------------------------------------------------
class TestPublicApi:
    def test_with_sharing_builder(self):
        config = EngineConfig().with_sharing(
            fold=True, result_cache_bytes=1024, cache_ttl=60.0
        )
        assert config.sharing.enabled
        assert config.sharing.result_cache_bytes == 1024
        assert config.sharing.cache_ttl == 60.0
        assert not EngineConfig().sharing.enabled
        assert SharingConfig().fold

    def test_sharing_config_in_fingerprint(self):
        from repro import config_fingerprint

        a = config_fingerprint(EngineConfig())
        b = config_fingerprint(EngineConfig().with_sharing())
        assert a != b

    def test_submit_many_without_sharing(self, catalog):
        engine = AccordionEngine(catalog)
        h1, h2 = engine.submit_many(["select count(*) from nation"] * 2)
        assert h1.result().rows == h2.result().rows

    def test_sharing_info_str(self):
        assert str(SharingInfo()) == "unshared"
        assert "Q7" in str(SharingInfo(role="folded", folded_into=7,
                                       pages_saved=3))
        assert "cached" in str(SharingInfo(role="cached", cache_hit=True))


# -- property-based bit-identity -------------------------------------------
_COMPARISONS = ["<", "<=", ">", ">="]


@st.composite
def _conjuncts(draw):
    """A random conjunction over lineitem columns, plus a reordering."""
    n = draw(st.integers(min_value=1, max_value=3))
    parts = []
    for _ in range(n):
        column, lo, hi = draw(st.sampled_from([
            ("l_quantity", 5, 45),
            ("l_orderkey", 50, 5000),
            ("l_linenumber", 1, 6),
        ]))
        op = draw(st.sampled_from(_COMPARISONS))
        value = draw(st.integers(min_value=lo, max_value=hi))
        parts.append(f"{column} {op} {value}")
    shuffled = draw(st.permutations(parts))
    return " and ".join(parts), " and ".join(shuffled)


class TestPropertyBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(filters=_conjuncts())
    def test_reordered_filters_fold_bit_identical(self, tiny_catalog, filters):
        original, shuffled = filters
        sql_a = f"select l_orderkey from lineitem where {original}"
        sql_b = f"select l_orderkey from lineitem where {shuffled}"
        engine = sharing_engine(tiny_catalog)
        h1 = engine.submit(sql_a)
        h2 = engine.submit(sql_b)
        assert h2.sharing.role in ("folded", "cached")
        expected = isolated_rows(tiny_catalog, sql_a)
        assert h1.result().rows == expected
        assert h2.result().rows == expected
