"""Concurrent-query folding + shared result cache (DESIGN.md §14).

Covers the fold detector (normalization, subsumption, residuals), the
result cache (hit/TTL/capacity/invalidation), the cancellation semantics
of shared executions, workload-layer accounting (no double billing,
priority adoption), and the bit-identity contract: a folded or cached
query returns exactly the rows an isolated run returns.
"""

from __future__ import annotations

from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import (
    AccordionEngine,
    EngineConfig,
    ExecutionError,
    QueryCancelledError,
    QueryFailedError,
    SharingConfig,
    SharingInfo,
    Workload,
    PoissonArrivals,
    QueryOptions,
)
from repro.data import Catalog
from repro.data.tpch.queries import QUERIES
from repro.sharing import cache as result_cache, normalize_logical, plan_residual
from repro.tree import identity
from repro.plan.cache import prepare
from repro.plan.logical_planner import LogicalPlanner
from repro.plan.optimizer import prune_columns
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.sql.tokens import TokenType

from test_engine_queries import SQL_SHAPES


def sharing_engine(catalog, **sharing_kwargs) -> AccordionEngine:
    config = EngineConfig().with_sharing(**sharing_kwargs)
    return AccordionEngine(catalog, config=config)


def isolated_rows(catalog, sql: str):
    return AccordionEngine(catalog).execute(sql).rows


def fold_key(catalog, sql: str) -> tuple:
    """The fold / result-cache key of ``sql``."""
    return prepare(catalog, sql, memo=False).key


def normalize(catalog, sql: str):
    logical = prune_columns(LogicalPlanner(catalog).plan(parse(sql)))
    return normalize_logical(logical)


# -- normalization ----------------------------------------------------------
class TestNormalization:
    def test_conjunct_order_is_canonical(self, catalog):
        a = fold_key(catalog,
                     "select l_orderkey from lineitem "
                     "where l_quantity < 10 and l_orderkey < 500")
        b = fold_key(catalog,
                     "select l_orderkey from lineitem "
                     "where l_orderkey < 500 and l_quantity < 10")
        assert a == b

    def test_flipped_comparison_is_canonical(self, catalog):
        a = fold_key(catalog,
                     "select l_orderkey from lineitem where l_quantity < 10")
        b = fold_key(catalog,
                     "select l_orderkey from lineitem where 10 > l_quantity")
        assert a == b

    def test_different_predicates_do_not_collide(self, catalog):
        a = fold_key(catalog,
                     "select l_orderkey from lineitem where l_quantity < 10")
        b = fold_key(catalog,
                     "select l_orderkey from lineitem where l_quantity < 11")
        assert a != b

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


# -- identity classes -------------------------------------------------------
_A = "select l_orderkey from lineitem where "
#: 19 rewrites of hand-written texts; with the 22 query texts and the 29
#: ``SQL_SHAPES`` they make the 70 plans whose pairwise key equality was
#: recorded from ``plan_key`` at the commit that deleted it.
IDENTITY_VARIANTS = {
    "conj": _A + "l_quantity < 10 and l_orderkey < 500",
    "conj_permuted": _A + "l_orderkey < 500 and l_quantity < 10",
    "conj_flipped": _A + "10 > l_quantity and 500 > l_orderkey",
    "conj_literal": _A + "l_quantity < 11 and l_orderkey < 500",
    "conj_output_alias": (
        "select l_orderkey as k from lineitem "
        "where l_quantity < 10 and l_orderkey < 500"
    ),
    "conj_table_alias": (
        "select l.l_orderkey from lineitem l "
        "where l.l_quantity < 10 and l.l_orderkey < 500"
    ),
    "eq": (
        "select o_orderkey from orders, customer "
        "where o_custkey = c_custkey and c_nationkey = 3"
    ),
    "eq_swapped": (
        "select o_orderkey from orders, customer "
        "where c_custkey = o_custkey and 3 = c_nationkey"
    ),
    "neq": "select n_name from nation where n_regionkey <> 2",
    "neq_swapped": "select n_name from nation where 2 <> n_regionkey",
    "in": "select count(*) as c from part where p_size in (1, 5, 9)",
    "in_permuted": "select count(*) as c from part where p_size in (9, 1, 5)",
    "in_arity": "select count(*) as c from part where p_size in (1, 5, 9, 11)",
    "in_values": "select count(*) as c from part where p_size in (2, 6, 10)",
    "like": "select count(*) as c from part where p_type like '%BRASS'",
    "like_pattern": "select count(*) as c from part where p_type like '%STEEL'",
    "case_literal": SQL_SHAPES["case_group_key"].replace("25", "30"),
    "disj": _A + "l_quantity < 10 or l_orderkey < 500",
    "disj_permuted": _A + "l_orderkey < 500 or l_quantity < 10",
}
IDENTITY_TEXTS = {**QUERIES, **SQL_SHAPES, **IDENTITY_VARIANTS}
#: The classes with more than one member (every other text is alone),
#: with literals — the fold / result-cache key — and without — the
#: template key.  2,628 pairs: 10 and 18 equal.  (Seventy texts when
#: recorded; ``SQL_SHAPES`` has grown by nine since, each alone.)
RECORDED_CLASSES = {
    True: [
        {"conj", "conj_permuted", "conj_flipped", "conj_table_alias"},
        {"eq", "eq_swapped"},
        {"neq", "neq_swapped"},
        {"in", "in_permuted"},
        {"disj", "disj_permuted"},
    ],
    False: [
        {"case_group_key", "case_literal"},
        {"conj", "conj_permuted", "conj_flipped", "conj_literal",
         "conj_table_alias"},
        {"eq", "eq_swapped"},
        {"neq", "neq_swapped"},
        {"in", "in_permuted", "in_values"},
        {"like", "like_pattern"},
        {"disj", "disj_permuted"},
    ],
}


def logical_plan(catalog, sql: str):
    return prune_columns(LogicalPlanner(catalog).plan(parse(sql)))


@pytest.mark.parametrize("literals", [True, False])
def test_seventy_plans_keep_their_recorded_classes(catalog, literals):
    assert len(IDENTITY_TEXTS) == 79
    classes: dict = {}
    for name, sql in IDENTITY_TEXTS.items():
        key = identity(logical_plan(catalog, sql), literals)
        classes.setdefault(key, set()).add(name)
    shared = [names for names in classes.values() if len(names) > 1]
    expected = RECORDED_CLASSES[literals]
    assert sorted(map(sorted, shared)) == sorted(map(sorted, expected))


def test_nested_connectives_flatten_into_their_parent():
    """The binder already flattens what SQL can say; plans built in code
    (residuals, rewrites) need not."""
    from repro.pages import ColumnType
    from repro.sql.expressions import BoolAnd, BoolOr, Comparison, Constant, InputRef

    a, b, c = (
        Comparison("<", InputRef(i, ColumnType.INT64), Constant(i, ColumnType.INT64))
        for i in range(3)
    )
    assert identity(BoolAnd((a, BoolAnd((b, c))))) == identity(BoolAnd((c, b, a)))
    assert identity(BoolOr((BoolOr((c, a)), b))) == identity(BoolOr((a, b, c)))
    assert identity(BoolOr((a, BoolAnd((b, c))))) != identity(BoolOr((a, b, c)))


def test_consecutive_filters_are_one_conjunction(catalog):
    """No SQL text plans a filter directly over a filter today; a plan
    rewritten in code may."""
    from repro.plan import LogicalFilter

    plan = logical_plan(catalog, IDENTITY_VARIANTS["conj"])
    (merged,) = [n for n in plan.walk() if isinstance(n, LogicalFilter)]
    first, second = merged.predicate.terms
    stacked = LogicalFilter(LogicalFilter(merged.child, second), first)
    assert identity(stacked) == identity(merged)
    assert identity(stacked, literals=False) == identity(merged, literals=False)
    assert identity(LogicalFilter(merged.child, first)) != identity(merged)


_NUMERIC = ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
            "l_quantity", "l_extendedprice"]
_TEXT = ["l_returnflag", "l_shipmode", "l_shipinstruct"]
#: Never drawn: what a leaf's column is replaced by.
_SPARE = {"like": "l_linestatus", "cmp": "l_discount", "in": "l_discount",
          "columns": "l_discount"}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
_OTHER_OP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "=": "<>", "<>": "="}


@st.composite
def _predicates(draw):
    """``(leaves, shape)``: 2–5 leaves, each over its own column (so no OR
    branch shares a conjunct the planner would factor out), under a
    random AND/OR tree of leaf indexes.  A leaf is ``(kind, column,
    *rest)``; the first always carries a literal."""
    numeric = draw(st.permutations(_NUMERIC))
    text = draw(st.permutations(_TEXT))
    ops = st.sampled_from(sorted(_FLIP))
    small = st.integers(min_value=1, max_value=60)
    leaves = [("cmp", numeric.pop(), draw(ops), draw(small))]
    for kind in draw(st.lists(
        st.sampled_from(["cmp", "in", "like", "columns"]), min_size=1, max_size=4
    )):
        if kind == "cmp" and numeric:
            leaves.append((kind, numeric.pop(), draw(ops), draw(small)))
        elif kind == "in" and numeric:
            options = draw(st.lists(small, min_size=2, max_size=4, unique=True))
            leaves.append((kind, numeric.pop(), tuple(options)))
        elif kind == "like" and text:
            pattern = draw(st.sampled_from(["A%", "%AIL", "%O%"]))
            leaves.append((kind, text.pop(), pattern))
        elif kind == "columns" and len(numeric) > 2:
            equal = draw(st.sampled_from(["=", "<>"]))
            leaves.append((kind, numeric.pop(), equal, numeric.pop()))

    def shape(indexes):
        if len(indexes) == 1:
            return indexes[0]
        cut = draw(st.integers(min_value=1, max_value=len(indexes) - 1))
        connective = draw(st.sampled_from(["and", "or"]))
        return (connective, [shape(indexes[:cut]), shape(indexes[cut:])])

    return leaves, shape(list(range(len(leaves))))


def _render(leaves, shape, rnd=None, q="") -> str:
    """The predicate as SQL; with ``rnd``, an equivalent rewrite of it:
    terms shuffled and re-associated, comparisons flipped, ``=`` operands
    swapped, IN lists permuted."""
    if isinstance(shape, tuple):
        connective, terms = shape
        texts = [_render(leaves, t, rnd, q) for t in terms]
        if rnd:
            for i, term in enumerate(terms):
                nested = isinstance(term, tuple) and term[0] == connective
                if nested and rnd.random() < 0.5:
                    texts[i] = texts[i][1:-1]  # (a and b) and c: a and b and c
            rnd.shuffle(texts)
        return "(" + f" {connective} ".join(texts) + ")"
    kind, column, *rest = leaves[shape]
    column = q + column
    if kind == "in":
        options = list(rest[0])
        if rnd:
            rnd.shuffle(options)
        return f"{column} in ({', '.join(map(str, options))})"
    if kind == "like":
        return f"{column} like '{rest[0]}'"
    op, other = rest  # cmp: a literal; columns: another column
    if kind == "columns":
        other = q + other
    if rnd and rnd.random() < 0.5:
        return f"{other} {_FLIP[op]} {column}"
    return f"{column} {op} {other}"


def _new_literal(leaf):
    """``leaf`` with one literal changed; ``None`` if it has none."""
    kind, column, *rest = leaf
    if kind == "cmp":
        return (kind, column, rest[0], rest[1] + 100)
    if kind == "in":
        return (kind, column, rest[0][:-1] + (max(rest[0]) + 100,))
    if kind == "like":
        return (kind, column, rest[0] + "x")
    return None


def _new_structure(leaf):
    """Variants of ``leaf`` that change what the query *is*: another
    operator (IN: another arity), another column."""
    kind, column, *rest = leaf
    if kind == "in":
        changed = (kind, column, rest[0] + (max(rest[0]) + 100,))
    elif kind == "like":
        changed = ("cmp", column, "=", "'A'")
    else:
        changed = (kind, column, _OTHER_OP[rest[0]], rest[1])
    return [changed, (kind, _SPARE[kind], *rest)]


class TestIdentityProperty:
    @settings(deadline=None)
    @given(predicate=_predicates(), rnd=st.randoms(use_true_random=False),
           pick=st.integers(min_value=0, max_value=4))
    def test_rewrites_keep_identity_and_changes_change_it(
        self, catalog, predicate, rnd, pick
    ):
        leaves, shape = predicate

        def keys(leaves, rnd=None, out="l_orderkey", alias=""):
            q = f"{alias}." if alias else ""
            sql = (
                f"select {out} from lineitem {alias} "
                f"where {_render(leaves, shape, rnd, q)}"
            )
            plan = logical_plan(catalog, sql)
            return identity(plan), identity(plan, literals=False)

        def replaced(index, leaf):
            return leaves[:index] + [leaf] + leaves[index + 1:]

        exact, template = keys(leaves)
        # Equivalent rewrites: same key, both modes.
        assert keys(leaves, rnd) == (exact, template)
        assert keys(leaves, rnd, "t.l_orderkey", alias="t") == (exact, template)
        # One literal: another query of the same template.
        index = pick % len(leaves)
        at = index if _new_literal(leaves[index]) else 0
        relit = keys(replaced(at, _new_literal(leaves[at])), rnd)
        assert relit[0] != exact and relit[1] == template
        # Operator / IN arity / column / output name: another template.
        others = [
            keys(replaced(index, leaf), rnd) for leaf in _new_structure(leaves[index])
        ]
        others.append(keys(leaves, rnd, out="l_orderkey as k"))
        for other in others:
            assert other[0] != exact and other[1] != template


# -- literal rewrites of whole query texts -------------------------------------
#: The 19 numbered TPC-H texts and the hand-written shapes.
REWRITTEN_TEXTS = {
    **{name: sql for name, sql in QUERIES.items() if name[1:].isdigit()},
    **SQL_SHAPES,
}


def literal_spans(sql: str) -> dict:
    """Each distinct ``(kind, value)`` literal of ``sql`` -> where it
    stands.  A LIMIT count is no literal of the plan: it is structure,
    part of the template."""
    spans: dict = {}
    tokens = tokenize(sql)
    for before, token in zip([None, *tokens], tokens):
        def after(word):
            return before is not None and before.matches_keyword(word)

        if token.type is TokenType.NUMBER and not after("LIMIT"):
            kind, end = "number", token.position + len(token.value)
        elif token.type is TokenType.STRING:
            kind = "date" if after("DATE") else "interval" if after("INTERVAL") else "string"
            end = sql.index("'", token.position + 1) + 1
        else:
            continue
        spans.setdefault((kind, token.value), []).append((token.position, end))
    return spans


def spelled(kind: str, value: str, delta: int) -> str:
    """``value`` moved by ``delta``; 0 respells a number ("010") and
    leaves any other literal as it was."""
    if kind == "number":
        if delta == 0:
            return "0" + value
        if "." in value:
            places = len(value.split(".")[1])
            return str(Decimal(value) + Decimal(delta).scaleb(-places))
        return str(int(value) + delta)
    if kind == "date":
        return f"'{date.fromisoformat(value) + timedelta(days=delta)}'"
    if kind == "interval":
        return f"'{int(value) + delta}'"
    pad = "Z" * delta
    return f"'{pad}{value}'" if value.endswith("%") else f"'{value}{pad}'"


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(REWRITTEN_TEXTS)),
       pick=st.integers(min_value=0, max_value=99),
       delta=st.integers(min_value=0, max_value=40))
def test_literal_rewrites_keep_the_template_and_move_the_fold_key(
    catalog, name, pick, delta
):
    """Every occurrence of one literal of a query text moved by
    ``delta``: the template id stays, and the fold key changes exactly
    when the value does.  Pairs class as before the prepared entry
    became the one identity: all 560 rewrites at deltas 0, 1, 7 and 40
    kept the template id and fold key they had then."""
    sql = REWRITTEN_TEXTS[name]
    spans = literal_spans(sql)
    assume(spans)
    kind, value = literal = sorted(spans)[pick % len(spans)]
    new = spelled(kind, value, delta)
    # A value moved onto another literal's merges two parameters.
    assume(delta == 0 or new.strip("'") not in {v for k, v in spans if k == kind})
    pieces, last = [], 0
    for start, end in spans[literal]:
        pieces += [sql[last:start], new]
        last = end
    base, rewrite = (
        prepare(catalog, text, memo=False) for text in (sql, "".join(pieces) + sql[last:])
    )
    shaping = QueryOptions().shaping()
    assert rewrite.template(shaping) == base.template(shaping)
    assert (rewrite.key != base.key) == (delta != 0)


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
        """An aggregate over a detail carrier's core opens its own group:
        a residual is only a filter and a projection."""
        engine = sharing_engine(catalog)
        detail = ("select l_returnflag, l_quantity from lineitem "
                  "where l_quantity < 30")
        agg = ("select l_returnflag, count(*), min(l_quantity), "
               "max(l_quantity) from lineitem where l_quantity < 30 "
               "group by l_returnflag")
        h1 = engine.submit(detail)
        h2 = engine.submit(agg)
        assert h2.sharing.role == "carrier"
        assert h1.result().rows == isolated_rows(catalog, detail)
        assert h2.result().rows == isolated_rows(catalog, agg)

    def test_residual_integer_sum_is_exact_beyond_float64(self, catalog):
        """The aggregate runs its own execution beside the detail carrier,
        and its INT64 sum is held to python-int arithmetic."""
        engine = sharing_engine(catalog)
        detail = ("select o_orderstatus, o_orderkey, o_custkey from orders "
                  "where o_orderkey > 0")
        agg = ("select o_orderstatus, sum(o_orderkey * o_custkey * 100000003) "
               "from orders where o_orderkey > 0 group by o_orderstatus")
        engine.submit(detail)
        folded = engine.submit(agg)
        assert folded.sharing.role == "carrier"
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

    def test_capacity_eviction_is_lru(self, catalog, monkeypatch):
        monkeypatch.setattr(result_cache, "RESULT_CACHE_BYTES", 100)
        engine = sharing_engine(catalog)
        a = "select count(*) from lineitem"
        b = "select count(*) from orders"
        engine.execute(a)
        engine.execute(b)  # evicts a (capacity fits one small page)
        assert engine.metrics.snapshot()["sharing.cache_evictions"] >= 1
        h = engine.submit(a)
        assert h.sharing.role == "carrier"


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
        sql = "select sum(l_quantity) from lineitem group by l_orderkey"
        h1 = engine.session("etl", priority=0.0).submit(sql)
        h2 = engine.session("bi", priority=5.0, deadline=100.0).submit(sql)
        h3 = engine.session("ops", priority=2.0).submit(sql)
        engine.run_for(0.5001)  # just past the fold window
        carrier = h1.execution
        entry = engine.workload.arbiter.entries[carrier.id]
        assert entry.priority == 5.0
        assert entry.deadline_at == 100.0
        # The query the entry was adopted for detaches first: the riders
        # still live decide, not the values it was adopted with.
        h1.cancel("bail")
        assert (entry.priority, entry.deadline_at) == (5.0, 100.0)
        h2.cancel("bail")
        assert (entry.priority, entry.deadline_at) == (2.0, None)
        assert h3.result().num_rows > 0

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
class TestObservability:
    @pytest.mark.parametrize("route", ["unshared", "carrier", "folded", "cached"])
    def test_trace_and_profile_read_the_serving_execution(self, catalog, route):
        """Spans and profiles are recorded under the execution's id, which
        a carrier or folded query does not share: a cached answer has no
        execution, so it says so instead of reporting another query."""
        config = (EngineConfig().with_sharing(fold_window=0.5)
                  .with_tracing(profiling=True))
        engine = AccordionEngine(catalog, config=config)
        sql = "select sum(l_quantity) from lineitem group by l_orderkey"
        handles = {"carrier": engine.submit(sql), "folded": engine.submit(sql)}
        handles["carrier"].result()
        handles["cached"] = engine.submit(sql)
        handles["unshared"] = engine.submit(
            "select l_orderkey from lineitem order by l_orderkey limit 5"
        )
        handle = handles[route]
        handle.result()
        assert handle.sharing.role == route
        if route == "cached":
            for read in (handle.trace, handle.profile):
                with pytest.raises(ExecutionError, match="result cache"):
                    read()
            return
        serving = handle.execution.id
        trace = handle.trace()
        assert trace.query_id == serving and trace.spans_of("task")
        profile = handle.profile()
        assert profile.entries
        assert {e.query_id for e in profile.entries} == {serving}


class TestPublicApi:
    def test_with_sharing_builder(self):
        config = EngineConfig().with_sharing(cache_ttl=60.0)
        assert config.sharing.enabled
        assert config.sharing.cache_ttl == 60.0
        assert not EngineConfig().sharing.enabled
        with pytest.raises(TypeError):  # folding cannot be switched off
            SharingConfig(fold=False)

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
