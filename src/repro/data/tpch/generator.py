"""Deterministic TPC-H data generator (dbgen-like, vectorized).

Generates all eight TPC-H tables at an arbitrary scale factor with numpy.
The generator follows dbgen's column formulas where they matter for query
behaviour (key relationships, retail-price formula, value distributions,
text pools) and uses seeded per-table RNG streams so any table can be
generated independently and reproducibly.

The paper evaluates on TPC-H SF100 stored as CSV across 10 storage nodes
(Table 1); tests and benchmarks here use reduced scale factors — the
simulator's behaviour shapes are scale-invariant.
"""

from __future__ import annotations

import zlib

import numpy as np

from ...pages import DictColumn
from ...util import date_to_days
from ..table import Table
from . import text
from .schema import TPCH_SCHEMAS, row_count

_MIN_ORDER_DATE = date_to_days("1992-01-01")
_MAX_ORDER_DATE = date_to_days("1998-08-02") - 151

# ``dataset_cache.GENERATOR_VERSION`` versions this module's output: bump
# it whenever a column formula below changes.


class TpchGenerator:
    """Generates TPC-H tables at ``scale`` with a deterministic ``seed``."""

    def __init__(self, scale: float = 0.01, seed: int = 20250622):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self._cache: dict[str, Table] = {}

    # -- public API -------------------------------------------------------
    def table(self, name: str) -> Table:
        """Return (and cache) the generated table ``name``."""
        name = name.lower()
        if name not in self._cache:
            builder = getattr(self, f"_gen_{name}", None)
            if builder is None:
                raise KeyError(f"unknown TPC-H table: {name}")
            self._cache[name] = builder()
        return self._cache[name]

    def tables(self) -> dict[str, Table]:
        """Generate and return all eight tables."""
        return {name: self.table(name) for name in TPCH_SCHEMAS}

    # -- helpers ------------------------------------------------------------
    def _rng(self, table: str) -> np.random.Generator:
        # zlib.crc32 is deterministic across processes (unlike hash(),
        # which is randomized per interpreter run).
        digest = zlib.crc32(table.encode("utf-8"))
        return np.random.default_rng([self.seed, digest])

    # String columns are emitted dictionary-encoded (DESIGN.md §18):
    # pool draws *are* codes, and formatted text is rendered once per
    # distinct combination instead of once per row.
    @staticmethod
    def _pick(rng: np.random.Generator, pool: list[str], n: int) -> DictColumn:
        return DictColumn(rng.integers(0, len(pool), n), pool)

    @staticmethod
    def _rendered(codes: np.ndarray, render) -> DictColumn:
        """Column of ``render(code)`` per row; distinct codes must render
        to distinct text."""
        used, inverse = np.unique(codes, return_inverse=True)
        return DictColumn(inverse, [render(c) for c in used.tolist()])

    @classmethod
    def _joined(cls, rng: np.random.Generator, n: int, *pools: list[str]) -> DictColumn:
        """One draw per pool (in pool order), joined with spaces."""
        sizes = [len(pool) for pool in pools]
        draws = [rng.integers(0, size, n) for size in sizes]
        return cls._rendered(
            np.ravel_multi_index(draws, sizes),
            lambda code: " ".join(
                pool[i] for pool, i in zip(pools, np.unravel_index(code, sizes))
            ),
        )

    @classmethod
    def _comments(cls, rng: np.random.Generator, n: int) -> DictColumn:
        words = text.PART_NAME_WORDS
        a = rng.integers(0, len(words), n)
        b = rng.integers(0, len(words), n)
        return cls._rendered(
            a * len(words) + b,
            lambda c: f"{words[c // len(words)]} {words[c % len(words)]} requests",
        )

    @staticmethod
    def _phones(rng: np.random.Generator, nation_keys: np.ndarray) -> DictColumn:
        local = rng.integers(100, 999, (len(nation_keys), 3))
        return DictColumn.from_values(
            f"{10 + nk}-{a}-{b}-{c}"
            for nk, (a, b, c) in zip(nation_keys.tolist(), local.tolist())
        )

    @staticmethod
    def _retail_price(partkeys: np.ndarray) -> np.ndarray:
        """dbgen's part retail-price formula."""
        pk = partkeys.astype(np.float64)
        return (90000.0 + (pk % 200001.0) / 10.0 + 100.0 * (pk % 1000.0)) / 100.0

    # -- fixed tables ---------------------------------------------------
    def _gen_region(self) -> Table:
        rng = self._rng("region")
        schema = TPCH_SCHEMAS["region"]
        n = len(text.REGIONS)
        return Table(
            "region",
            schema,
            [
                np.arange(n, dtype=np.int64),
                DictColumn(np.arange(n), text.REGIONS),
                self._comments(rng, n),
            ],
        )

    def _gen_nation(self) -> Table:
        rng = self._rng("nation")
        schema = TPCH_SCHEMAS["nation"]
        n = len(text.NATIONS)
        names = DictColumn(np.arange(n), [name for name, _ in text.NATIONS])
        regions = np.array([r for _, r in text.NATIONS], dtype=np.int64)
        return Table(
            "nation",
            schema,
            [np.arange(n, dtype=np.int64), names, regions, self._comments(rng, n)],
        )

    # -- scaled tables ----------------------------------------------------
    def _gen_supplier(self) -> Table:
        rng = self._rng("supplier")
        schema = TPCH_SCHEMAS["supplier"]
        n = row_count("supplier", self.scale)
        keys = np.arange(1, n + 1, dtype=np.int64)
        nations = rng.integers(0, 25, n)
        return Table(
            "supplier",
            schema,
            [
                keys,
                DictColumn(np.arange(n), [f"Supplier#{k:09d}" for k in keys]),
                DictColumn(np.arange(n), [f"addr sup {k}" for k in keys]),
                nations.astype(np.int64),
                self._phones(rng, nations),
                np.round(rng.uniform(-999.99, 9999.99, n), 2),
                self._comments(rng, n),
            ],
        )

    def _gen_part(self) -> Table:
        rng = self._rng("part")
        schema = TPCH_SCHEMAS["part"]
        n = row_count("part", self.scale)
        keys = np.arange(1, n + 1, dtype=np.int64)
        words = text.PART_NAME_WORDS
        widx = rng.integers(0, len(words), (n, 5))
        names = DictColumn.from_values(
            " ".join(words[j] for j in row) for row in widx.tolist()
        )
        mfgr = rng.integers(1, 6, n)
        brand = mfgr * 10 + rng.integers(1, 6, n)
        types = self._joined(
            rng, n, text.TYPE_SYLLABLE_1, text.TYPE_SYLLABLE_2, text.TYPE_SYLLABLE_3
        )
        containers = self._joined(
            rng, n, text.CONTAINER_SYLLABLE_1, text.CONTAINER_SYLLABLE_2
        )
        return Table(
            "part",
            schema,
            [
                keys,
                names,
                self._rendered(mfgr, lambda m: f"Manufacturer#{m}"),
                self._rendered(brand, lambda b: f"Brand#{b}"),
                types,
                rng.integers(1, 51, n).astype(np.int64),
                containers,
                np.round(self._retail_price(keys), 2),
                self._comments(rng, n),
            ],
        )

    def _gen_partsupp(self) -> Table:
        rng = self._rng("partsupp")
        schema = TPCH_SCHEMAS["partsupp"]
        parts = row_count("part", self.scale)
        suppliers = row_count("supplier", self.scale)
        partkeys = np.repeat(np.arange(1, parts + 1, dtype=np.int64), 4)
        j = np.tile(np.arange(4, dtype=np.int64), parts)
        s = suppliers
        # dbgen supplier-assignment formula (spreads the 4 suppliers of a
        # part across the supplier key space).
        suppkeys = (partkeys + j * (s // 4 + (partkeys - 1) // s)) % s + 1
        # At tiny scale factors the formula's stride can degenerate to a
        # divisor of S, duplicating (partkey, suppkey) pairs; fall back to
        # consecutive suppliers for those parts.
        if s >= 4:
            by_part = suppkeys.reshape(parts, 4)
            degenerate = np.array(
                [len(set(row)) < 4 for row in by_part.tolist()], dtype=bool
            )
            if degenerate.any():
                pk = np.arange(1, parts + 1, dtype=np.int64)[degenerate]
                fixed = (pk[:, None] + np.arange(4, dtype=np.int64)[None, :]) % s + 1
                by_part[degenerate] = fixed
                suppkeys = by_part.reshape(-1)
        n = len(partkeys)
        return Table(
            "partsupp",
            schema,
            [
                partkeys,
                suppkeys.astype(np.int64),
                rng.integers(1, 10000, n).astype(np.int64),
                np.round(rng.uniform(1.0, 1000.0, n), 2),
                self._comments(rng, n),
            ],
        )

    def _gen_customer(self) -> Table:
        rng = self._rng("customer")
        schema = TPCH_SCHEMAS["customer"]
        n = row_count("customer", self.scale)
        keys = np.arange(1, n + 1, dtype=np.int64)
        nations = rng.integers(0, 25, n)
        return Table(
            "customer",
            schema,
            [
                keys,
                DictColumn(np.arange(n), [f"Customer#{k:09d}" for k in keys]),
                DictColumn(np.arange(n), [f"addr cust {k}" for k in keys]),
                nations.astype(np.int64),
                self._phones(rng, nations),
                np.round(rng.uniform(-999.99, 9999.99, n), 2),
                self._pick(rng, text.SEGMENTS, n),
                self._comments(rng, n),
            ],
        )

    def _gen_orders(self) -> Table:
        rng = self._rng("orders")
        schema = TPCH_SCHEMAS["orders"]
        n = row_count("orders", self.scale)
        customers = row_count("customer", self.scale)
        keys = np.arange(1, n + 1, dtype=np.int64)
        custkeys = rng.integers(1, customers + 1, n).astype(np.int64)
        dates = rng.integers(_MIN_ORDER_DATE, _MAX_ORDER_DATE + 1, n).astype(np.int64)
        return Table(
            "orders",
            schema,
            [
                keys,
                custkeys,
                self._pick(rng, text.ORDER_STATUSES, n),
                np.round(rng.uniform(850.0, 560000.0, n), 2),
                dates,
                self._pick(rng, text.PRIORITIES, n),
                self._rendered(rng.integers(1, 1001, n), lambda c: f"Clerk#{c:09d}"),
                np.zeros(n, dtype=np.int64),
                self._comments(rng, n),
            ],
        )

    def _gen_lineitem(self) -> Table:
        rng = self._rng("lineitem")
        schema = TPCH_SCHEMAS["lineitem"]
        orders = self.table("orders")
        orderkeys_base = orders.column("o_orderkey")
        orderdates_base = orders.column("o_orderdate")
        parts = row_count("part", self.scale)
        suppliers = row_count("supplier", self.scale)

        lines_per_order = rng.integers(1, 8, len(orderkeys_base))
        orderkeys = np.repeat(orderkeys_base, lines_per_order)
        orderdates = np.repeat(orderdates_base, lines_per_order)
        n = len(orderkeys)
        linenumbers = np.concatenate(
            [np.arange(1, c + 1, dtype=np.int64) for c in lines_per_order.tolist()]
        ) if n else np.zeros(0, dtype=np.int64)

        partkeys = rng.integers(1, parts + 1, n).astype(np.int64)
        # dbgen picks one of the 4 partsupp suppliers of the part.
        j = rng.integers(0, 4, n)
        s = suppliers
        suppkeys = ((partkeys + j * (s // 4 + (partkeys - 1) // s)) % s + 1).astype(np.int64)

        quantity = rng.integers(1, 51, n).astype(np.float64)
        extendedprice = np.round(quantity * self._retail_price(partkeys), 2)
        discount = np.round(rng.integers(0, 11, n) / 100.0, 2)
        tax = np.round(rng.integers(0, 9, n) / 100.0, 2)

        shipdate = orderdates + rng.integers(1, 122, n)
        commitdate = orderdates + rng.integers(30, 91, n)
        receiptdate = shipdate + rng.integers(1, 31, n)

        today = date_to_days("1995-06-17")
        returnflag = DictColumn(
            np.where(receiptdate <= today, rng.integers(0, 2, n), 2), ["R", "A", "N"]
        )
        linestatus = DictColumn(np.where(shipdate > today, 0, 1), ["O", "F"])
        return Table(
            "lineitem",
            schema,
            [
                orderkeys.astype(np.int64),
                partkeys,
                suppkeys,
                linenumbers,
                quantity,
                extendedprice,
                discount,
                tax,
                returnflag,
                linestatus,
                shipdate.astype(np.int64),
                commitdate.astype(np.int64),
                receiptdate.astype(np.int64),
                self._pick(rng, text.SHIP_INSTRUCTIONS, n),
                self._pick(rng, text.SHIP_MODES, n),
                self._comments(rng, n),
            ],
        )
