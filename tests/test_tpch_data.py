"""Tests for the TPC-H generator, catalog, splits, and CSV I/O."""

import random

import numpy as np
import pytest

from repro.data import Catalog, SplitLayout
from repro.data.csvio import read_csv, write_csv
from repro.data.splits import PAPER_SPLIT_SCHEME
from repro.data.tpch.generator import TpchGenerator
from repro.data.tpch.schema import TPCH_SCHEMAS, row_count
from repro.errors import AnalysisError
from repro.exec.splits import SplitFeed, SystemSplit
from repro.util import date_to_days


@pytest.fixture(scope="module")
def gen():
    return TpchGenerator(scale=0.002, seed=123)


def test_all_tables_generate(gen):
    tables = gen.tables()
    assert set(tables) == set(TPCH_SCHEMAS)
    for name, table in tables.items():
        assert table.num_rows > 0
        assert table.schema == TPCH_SCHEMAS[name]


def test_row_counts_scale(gen):
    assert gen.table("region").num_rows == 5
    assert gen.table("nation").num_rows == 25
    assert gen.table("supplier").num_rows == row_count("supplier", 0.002)
    assert gen.table("orders").num_rows == row_count("orders", 0.002)
    # lineitem has 1-7 lines per order
    ratio = gen.table("lineitem").num_rows / gen.table("orders").num_rows
    assert 1.0 <= ratio <= 7.0


def test_generation_is_deterministic():
    a = TpchGenerator(scale=0.002, seed=9).table("lineitem")
    b = TpchGenerator(scale=0.002, seed=9).table("lineitem")
    for col_a, col_b in zip(a.columns, b.columns):
        assert list(col_a[:50]) == list(col_b[:50])


def test_different_seeds_differ():
    a = TpchGenerator(scale=0.002, seed=1).table("orders")
    b = TpchGenerator(scale=0.002, seed=2).table("orders")
    assert list(a.column("o_custkey")[:20]) != list(b.column("o_custkey")[:20])


def test_foreign_keys_are_valid(gen):
    orders = gen.table("orders")
    customers = gen.table("customer").num_rows
    assert orders.column("o_custkey").min() >= 1
    assert orders.column("o_custkey").max() <= customers

    lineitem = gen.table("lineitem")
    assert lineitem.column("l_orderkey").max() <= orders.num_rows
    assert lineitem.column("l_partkey").max() <= gen.table("part").num_rows
    assert lineitem.column("l_suppkey").max() <= gen.table("supplier").num_rows

    nation = gen.table("nation")
    assert nation.column("n_regionkey").max() <= 4


def test_partsupp_four_suppliers_per_part(gen):
    ps = gen.table("partsupp")
    parts = gen.table("part").num_rows
    assert ps.num_rows == parts * 4
    # The dbgen formula must not duplicate (partkey, suppkey) pairs.
    pairs = set(zip(ps.column("ps_partkey").tolist(), ps.column("ps_suppkey").tolist()))
    assert len(pairs) == ps.num_rows


def test_value_distributions(gen):
    lineitem = gen.table("lineitem")
    assert set(np.unique(lineitem.column("l_returnflag"))) <= {"A", "N", "R"}
    assert set(np.unique(lineitem.column("l_linestatus"))) <= {"O", "F"}
    discount = lineitem.column("l_discount")
    assert discount.min() >= 0.0 and discount.max() <= 0.10
    dates = gen.table("orders").column("o_orderdate")
    assert dates.min() >= date_to_days("1992-01-01")
    assert dates.max() <= date_to_days("1998-08-02")


def test_date_causality(gen):
    li = gen.table("lineitem")
    assert (li.column("l_receiptdate") > li.column("l_shipdate")).all()


def test_unknown_table_raises(gen):
    with pytest.raises(KeyError):
        gen.table("widgets")


# -- catalog -----------------------------------------------------------------
def test_catalog_lookup(gen):
    catalog = Catalog()
    catalog.register(gen.table("nation"))
    assert catalog.has_table("NATION")
    assert catalog.table("Nation").num_rows == 25
    assert catalog.schema("nation").contains("n_name")
    with pytest.raises(AnalysisError):
        catalog.table("region")


# -- splits -----------------------------------------------------------------
def test_paper_split_scheme(gen):
    catalog = Catalog()
    catalog.register_all(gen.tables())
    layout = SplitLayout(catalog, storage_nodes=10)
    assert len(layout.splits("nation")) == 1
    assert len(layout.splits("orders")) == 10
    assert len(layout.splits("lineitem")) == 70
    nodes = {s.storage_node for s in layout.splits("lineitem")}
    assert nodes == set(range(10))


def test_splits_cover_table_exactly(gen):
    catalog = Catalog()
    catalog.register_all(gen.tables())
    layout = SplitLayout(catalog, storage_nodes=4)
    splits = sorted(layout.splits("orders"), key=lambda s: s.row_start)
    assert splits[0].row_start == 0
    assert splits[-1].row_stop == gen.table("orders").num_rows
    for a, b in zip(splits, splits[1:]):
        assert a.row_stop == b.row_start


def test_node_overrides(gen):
    catalog = Catalog()
    catalog.register_all(gen.tables())
    layout = SplitLayout(catalog, storage_nodes=10, node_overrides={"orders": [0, 1]})
    assert {s.storage_node for s in layout.splits("orders")} <= {0, 1}
    with pytest.raises(ValueError):
        SplitLayout(catalog, 2, node_overrides={"orders": [5]}).splits("orders")


def test_setup_report_contains_all_tables(gen):
    catalog = Catalog()
    catalog.register_all(gen.tables())
    layout = SplitLayout(catalog, storage_nodes=10)
    report = layout.setup_report()
    assert {r["table"] for r in report} == {t.capitalize() for t in PAPER_SPLIT_SCHEME}
    lineitem = next(r for r in report if r["table"] == "Lineitem")
    assert "7 split/node" in lineitem["partitioning"]


# -- split feed -----------------------------------------------------------------
def test_split_feed_prefers_local(gen):
    catalog = Catalog()
    catalog.register_all(gen.tables())
    layout = SplitLayout(catalog, storage_nodes=4)
    feed = SplitFeed([SystemSplit(catalog.table("orders"), s) for s in layout.splits("orders")])
    local = feed.acquire(preferred_node=2)
    assert local.storage_node == 2
    # Exhausting local splits falls back to stealing remote ones.
    while (s := feed.acquire(preferred_node=2)) is not None:
        pass
    assert feed.pending_count == 0


def test_split_feed_release_returns_remainder(gen):
    catalog = Catalog()
    catalog.register_all(gen.tables())
    layout = SplitLayout(catalog, storage_nodes=2)
    feed = SplitFeed([SystemSplit(catalog.table("orders"), s) for s in layout.splits("orders")])
    total = feed.total_rows
    split = feed.acquire()
    feed.release(split, offset=10)
    remaining = 0
    while (s := feed.acquire()) is not None:
        remaining += s.num_rows
    assert remaining == total - 10


class _ScanFeed:
    """The feed as a list scan (``pop(i)`` of the first local split, else
    ``pop(0)``): the reference the per-node deques must agree with."""

    release = SplitFeed.release

    def __init__(self, splits):
        self.pending = list(splits)

    def acquire(self, preferred_node=None):
        for i, split in enumerate(self.pending):
            if split.storage_node == preferred_node:
                return self.pending.pop(i)
        return self.pending.pop(0) if self.pending else None

    def _push(self, split):
        self.pending.append(split)


@pytest.mark.parametrize("seed", range(8))
def test_split_feed_hands_out_what_a_list_scan_would(gen, seed):
    catalog = Catalog()
    catalog.register_all(gen.tables())
    rng = random.Random(seed)
    layout = SplitLayout(catalog, storage_nodes=rng.randint(1, 6))
    splits = [SystemSplit(catalog.table("lineitem"), s) for s in layout.splits("lineitem")]
    rng.shuffle(splits)
    feeds = SplitFeed(splits), _ScanFeed(splits)
    while True:
        node = rng.choice([None, 7] + list(range(6)))  # 7: no such storage node
        taken = [feed.acquire(preferred_node=node) for feed in feeds]
        assert taken[0] == taken[1]
        if taken[0] is None:
            break
        assert feeds[0].pending_count == len(feeds[1].pending)
        if rng.random() < 0.3:  # a driver shut down part-way through
            offset = rng.randint(0, taken[0].num_rows)
            for feed in feeds:
                feed.release(taken[0], offset)
    assert feeds[0].pending_count == 0


def test_split_feed_progress(gen):
    catalog = Catalog()
    catalog.register_all(gen.tables())
    layout = SplitLayout(catalog, storage_nodes=2)
    feed = SplitFeed([SystemSplit(catalog.table("orders"), s) for s in layout.splits("orders")])
    assert feed.progress == 0.0
    feed.record_scan(feed.total_rows // 2)
    assert 0.4 < feed.progress < 0.6
    feed.record_scan(feed.total_rows)
    assert feed.progress == 1.0


# -- csv io -----------------------------------------------------------------
def test_csv_roundtrip(tmp_path, gen):
    table = gen.table("nation")
    path = write_csv(table, tmp_path / "nation.tbl")
    loaded = read_csv("nation", table.schema, path)
    assert loaded.num_rows == table.num_rows
    assert loaded.to_page().rows() == table.to_page().rows()


def test_csv_roundtrip_with_dates_and_floats(tmp_path, gen):
    table = gen.table("orders")
    path = write_csv(table, tmp_path / "orders.tbl")
    loaded = read_csv("orders", table.schema, path)
    assert (loaded.column("o_orderdate") == table.column("o_orderdate")).all()
    assert np.allclose(loaded.column("o_totalprice"), table.column("o_totalprice"))


def test_csv_bad_arity_raises(tmp_path, gen):
    path = tmp_path / "bad.tbl"
    path.write_text("1|2\n")
    with pytest.raises(ValueError):
        read_csv("nation", gen.table("nation").schema, path)
