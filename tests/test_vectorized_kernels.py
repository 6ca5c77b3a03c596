"""Property tests for the vectorized join/aggregation kernels (DESIGN.md §8).

Randomized pages — numeric, DATE, and string keys, empty pages,
NaN floats, composite keys — are pushed through the CSR join index and
the columnar two-stage aggregation, and the results are compared against
naive dict-based oracles with the same semantics as ``repro.reference``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import CostModel
from repro.exec.operators.aggregation import FinalAggOperator, PartialAggOperator
from repro.exec.operators import join
from repro.exec.operators.join import (
    HashJoinProbeOperator,
    JoinBridge,
    JoinBuildSink,
    _BuildIndex,
    _dense_int_lut,
)
from repro.pages import ColumnType, DictColumn, Page, Schema, concat_pages
from repro.plan.logical import JoinType
from repro.plan.physical import partial_agg_schema
from repro.sim import SimKernel
from repro.sql.expressions import AggregateCall, Comparison, InputRef
from repro.sql import functions
from repro.sql.functions import GroupKeyEncoder, group_codes

INT = ColumnType.INT64
FLT = ColumnType.FLOAT64
STR = ColumnType.STRING
DATE = ColumnType.DATE
COST = CostModel()

_WORDS = ["ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew"]

#: Key column generators, by logical type.  Each returns values with a
#: smallish domain so joins/groups actually collide.
def _gen_key_column(rng, col_type, n):
    if col_type is INT:
        if rng.integers(2):
            return rng.integers(0, 25, size=n)  # dense (LUT path)
        pool = rng.integers(-(10**9), 10**9, size=8)  # sparse (searchsorted)
        return pool[rng.integers(0, len(pool), size=n)]
    if col_type is DATE:
        return rng.integers(9100, 9130, size=n)
    if col_type is FLT:
        pool = np.array([-2.5, -1.0, 0.0, 0.5, 3.25, 7.125, np.nan])
        return pool[rng.integers(0, len(pool), size=n)]
    return np.array([_WORDS[i] for i in rng.integers(0, len(_WORDS), size=n)], dtype=object)


def _key_schema(col_types):
    return Schema.of(*[(f"k{i}", t) for i, t in enumerate(col_types)])


def _page(col_types, columns):
    schema = _key_schema(col_types)
    return Page(schema, [t.coerce(c) for t, c in zip(col_types, columns)])


def _norm(value):
    """NaN-tolerant cell normaliser: tagged strings sort uniformly."""
    if isinstance(value, float):
        return "f:NaN" if value != value else f"f:{round(value, 9)!r}"
    return f"{type(value).__name__}:{value!r}"


def _norm_rows(rows):
    return sorted(tuple(_norm(v) for v in row) for row in rows)


def _drain(op, pages):
    out = []
    for page in list(pages) + [Page.end()]:
        outs, _ = op.process(page)
        out.extend(o.rows() for o in outs if not o.is_end)
    return [row for chunk in out for row in chunk]


# ---------------------------------------------------------------------------
# joins vs dict oracle
# ---------------------------------------------------------------------------
def _dict_join(build_rows, probe_rows, nkeys):
    """INNER/SEMI/ANTI results of a dict join keyed on the first nkeys cols.

    Keys are python objects from ``.tolist()`` — NaN keys never compare
    equal, matching both the reference executor and the CSR index.
    """
    table = {}
    for row in build_rows:
        table.setdefault(row[:nkeys], []).append(row)
    inner, semi, anti = [], [], []
    for row in probe_rows:
        matches = table.get(row[:nkeys], ())
        if matches:
            semi.append(row)
            inner.extend(row + b for b in matches)
        else:
            anti.append(row)
    return inner, semi, anti


def _bridge_over(schema, nkeys, build_pages):
    bridge = JoinBridge(SimKernel(), schema, list(range(nkeys)))
    sink = JoinBuildSink(COST, bridge)
    sink.deliver(build_pages)
    sink.driver_finished()
    assert bridge.ready
    return bridge


def _radix_split(page, nkeys, fanout):
    """``page`` cut into ``fanout`` pages by a hash of its key, as a
    spilled join partitions both sides (NaN keys land anywhere: they
    match nothing wherever they are)."""
    part = np.array(
        [hash(key) % fanout for key in zip(*[c.tolist() for c in page.columns[:nkeys]])],
        dtype=np.int64,
    )
    return [page.mask(part == p) for p in range(fanout)]


def _check_joins(schema, nkeys, build_pages, probe_pages, residual=None, fanout=0):
    """INNER / SEMI / ANTI of the pages against the dict oracle, probed
    through the bridge's one index or — ``fanout`` > 0 — through one
    ``_BuildIndex`` per radix partition, as the Grace join builds them.
    The residual (over the INNER output) filters INNER only: a SEMI /
    ANTI probe takes none.  Returns ``(unique, probe page, INNER output
    page | None)`` per probed page."""
    keys = list(range(nkeys))
    if fanout:
        build = concat_pages(schema, build_pages)
        indexes = [_BuildIndex(part, keys) for part in _radix_split(build, nkeys, fanout)]
        probed = [
            (index, part)
            for page in probe_pages
            for index, part in zip(indexes, _radix_split(page, nkeys, fanout))
        ]
    else:
        index = _bridge_over(schema, nkeys, build_pages).index
        probed = [(index, page) for page in probe_pages]
    bridge = JoinBridge(SimKernel(), schema, keys)  # the operators probe ``index``
    results, inner_pages = {}, []
    for jt in (JoinType.INNER, JoinType.SEMI, JoinType.ANTI):
        inner = jt is JoinType.INNER
        probe = HashJoinProbeOperator(
            COST, bridge, jt, keys, residual if inner else None,
            schema.concat(schema) if inner else schema,
        )
        results[jt] = []
        for index, page in probed:
            outs, _ = probe._probe_with(index, page)
            assert len(outs) <= 1 and all(out.num_rows for out in outs)
            results[jt] += [row for out in outs for row in out.rows()]
            if inner:
                inner_pages.append((index.unique, page, outs[0] if outs else None))

    build_rows = [r for p in build_pages for r in p.rows()]
    probe_rows = [r for p in probe_pages for r in p.rows()]
    inner, semi, anti = _dict_join(build_rows, probe_rows, nkeys)
    if residual is not None:
        inner = [row for row in inner if row[nkeys] < row[len(schema) + nkeys]]
    assert _norm_rows(results[JoinType.INNER]) == _norm_rows(inner)
    assert _norm_rows(results[JoinType.SEMI]) == _norm_rows(semi)
    assert _norm_rows(results[JoinType.ANTI]) == _norm_rows(anti)
    return inner_pages


def _random_join_pages(rng):
    nkeys = int(rng.integers(1, 4))
    key_types = [(INT, DATE, STR, FLT)[i] for i in rng.integers(0, 4, size=nkeys)]
    col_types = key_types + [FLT]  # payload column rides along

    def random_page(max_rows):
        n = int(rng.integers(0, max_rows))  # sometimes empty
        return _page(col_types, [_gen_key_column(rng, t, n) for t in key_types]
                     + [rng.normal(size=n)])

    build_pages = [random_page(60) for _ in range(int(rng.integers(1, 4)))]
    probe_pages = [random_page(80) for _ in range(int(rng.integers(1, 4)))]
    return _key_schema(col_types), nkeys, build_pages, probe_pages


@pytest.mark.parametrize("seed", range(30))
def test_join_kernels_match_dict_oracle(seed):
    _check_joins(*_random_join_pages(np.random.default_rng(5000 + seed)))


def _shaped_join_pages(rng, key_types, unique, match):
    """One build page (keys distinct or not) and one probe page whose
    rows all / partly / never find a build key, or that has no rows.
    Misses come in every kind the probe tells apart: inside the build's
    value span, outside it, an unknown word, and — two columns — known
    values in a pair the build lacks."""
    pool = [(3 * (j // 4), _WORDS[j % 4])[: len(key_types)] for j in range(16)]
    pool = list(dict.fromkeys(pool))
    held, absent = pool[: len(pool) // 2], pool[len(pool) // 2 :]
    build = [held[i] for i in rng.permutation(len(held))]
    if not unique:
        build += [held[i] for i in rng.integers(0, len(held), size=20)]
    misses = absent + [(k[0] + 1,) + k[1:] for k in held] + [(k[0] + 10**6,) + k[1:] for k in held]
    if len(key_types) > 1:
        misses += [(k[0], "zelkova") for k in held] + [(held[0][0], absent[0][1])]
    draw = {"all": held, "some": held + misses, "none": misses, "empty": []}[match]
    probe = [draw[i] for i in rng.integers(0, len(draw), size=50)] if draw else []

    def page(keys):
        columns = [[k[c] for k in keys] for c in range(len(key_types))]
        return _page(key_types + [FLT], columns + [rng.normal(size=len(keys))])

    return page(build), page(probe)


@pytest.mark.parametrize("fanout", [0, 3], ids=["bridge", "grace"])
@pytest.mark.parametrize("with_residual", [False, True], ids=["plain", "residual"])
@pytest.mark.parametrize("match", ["all", "some", "none", "empty"])
@pytest.mark.parametrize("unique", [True, False], ids=["unique", "duplicate"])
@pytest.mark.parametrize("key_types", [[INT], [INT, STR]], ids=["int", "int+str"])
def test_join_kernels_match_dict_oracle_by_page_shape(
    key_types, unique, match, with_residual, fanout
):
    """Build shape x probe-page shape x join type x residual, through the
    bridge and through per-partition indexes; a probe column object
    reaches the output exactly when nothing about it changed: a unique
    build, every row of the page matched, no residual to filter them."""
    rng = np.random.default_rng(len(key_types) * 100 + unique * 10 + fanout)
    build, probe = _shaped_join_pages(rng, key_types, unique, match)
    schema, nkeys = build.schema, len(key_types)
    residual = (
        Comparison("<", InputRef(nkeys, FLT), InputRef(len(schema) + nkeys, FLT))
        if with_residual
        else None
    )
    outputs = _check_joins(schema, nkeys, [build], [probe], residual, fanout)
    for is_unique, page, out in outputs:
        # A partition of a duplicate-key build need not hold a duplicate.
        assert is_unique == unique or (fanout and is_unique)
        if out is None:
            continue
        shared = [o is c for o, c in zip(out.columns, page.columns)]
        assert all(shared) or not any(shared)
        assert all(shared) == (is_unique and match == "all" and residual is None)


def test_join_falls_back_to_a_key_dict_when_packing_would_overflow(monkeypatch):
    """``_BuildIndex._fallback_table``: the per-row dict path behind
    composite keys too wide for mixed-radix int64 packing, reached here
    by shrinking what counts as too wide."""
    monkeypatch.setattr(join, "_INT64_MAX", 4)
    fell_back = 0
    for seed in range(8):
        schema, nkeys, build_pages, probe_pages = _random_join_pages(
            np.random.default_rng(5100 + seed)
        )
        for fanout in (0, 2):
            _check_joins(schema, nkeys, build_pages, probe_pages, fanout=fanout)
        index = _bridge_over(schema, nkeys, build_pages).index
        fell_back += index._fallback_table is not None
    assert fell_back >= 6


def test_float_probe_keys_against_int_build_keys():
    # The dense-int LUT must not truncate fractional probe keys into a
    # false match: 2.5 joins nothing even though floor(2.5)=2 is a build key.
    bridge = _bridge_over(_key_schema([INT]), 1, [_page([INT], [[1, 2, 3]])])
    gids = bridge.probe_group_ids([np.array([2.5, 2.0, -1.0, 3.0])])
    assert gids[0] == -1 and gids[2] == -1
    assert gids[1] >= 0 and gids[3] >= 0
    assert gids[1] != gids[3]


def test_dense_int_lut_declines_sparse_and_nonint_keys():
    assert _dense_int_lut(np.array([0, 10_000_000], dtype=np.int64)) is None
    assert _dense_int_lut(np.array([0.5, 1.5])) is None
    # The padded table must stay addressable in int64.
    assert _dense_int_lut(np.array([np.iinfo(np.int64).min, 0])) is None
    assert _dense_int_lut(np.array([1 << 63, (1 << 63) + 2], dtype=np.uint64)) is None
    # Padded: one -1 sentinel below the smallest key and one above the largest.
    table, base = _dense_int_lut(np.array([10, 12, 15], dtype=np.int64))
    assert base == 9 and table.tolist() == [-1, 0, -1, 1, -1, -1, 2, -1]


_I64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "build, probe",
    [
        # Negative keys; probes below the span, at both edges, inside it
        # (hits and misses), just above and far above it.
        (
            np.array([-7, -5, -4, 0, 3], dtype=np.int64),
            np.array(
                [_I64.min, -1000, -8, -7, -6, -5, 0, 2, 3, 4, 1000, _I64.max],
                dtype=np.int64,
            ),
        ),
        (
            np.array([-7, -5, -4, 0, 3], dtype=np.int64),
            np.array([-9, -7, 3, 4, 1 << 30], dtype=np.int32),
        ),
        # ``uint64`` on either side, up to values that wrap in int64.
        (
            np.array([2, 3, 5, 8], dtype=np.uint64),
            np.array([0, 1, 2, 8, 9, 1 << 63, (1 << 64) - 1], dtype=np.uint64),
        ),
        (
            np.array([2, 3, 5, 8], dtype=np.int64),
            np.array([0, 1, 2, 8, 9, 1 << 63, (1 << 64) - 1], dtype=np.uint64),
        ),
        (
            np.array([0, 1, 5], dtype=np.uint64),
            np.array([-3, -1, 0, 1, 5, 6], dtype=np.int64),
        ),
    ],
)
def test_dense_int_lut_probe_equals_the_searchsorted_path(build, probe):
    index = _BuildIndex(Page(_key_schema([INT]), [build]), [0])
    assert index._col_luts[0] is not None
    lut = index.probe_group_ids([probe])
    index._col_luts[0] = None
    expected = index.probe_group_ids([probe])
    assert lut.tolist() == expected.tolist()
    assert (expected >= 0).any() and (expected < 0).any()


# ---------------------------------------------------------------------------
# two-stage aggregation vs dict oracle
# ---------------------------------------------------------------------------
def _dict_aggregate(rows, nkeys):
    """sum/count/min/max/avg of the value column, grouped on key prefix."""
    groups = {}
    for row in rows:
        groups.setdefault(row[:nkeys], []).append(row[-1])
    out = []
    for key, values in groups.items():
        out.append(
            key
            + (
                sum(values),
                len(values),
                min(values),
                max(values),
                sum(values) / len(values),
            )
        )
    return out


@pytest.mark.parametrize("seed", range(30))
def test_two_stage_aggregation_matches_dict_oracle(seed):
    rng = np.random.default_rng(7000 + seed)
    nkeys = int(rng.integers(1, 4))
    key_types = [(INT, DATE, STR)[i] for i in rng.integers(0, 3, size=nkeys)]
    col_types = key_types + [FLT]
    in_schema = _key_schema(col_types)

    calls = [
        AggregateCall("sum", InputRef(nkeys, FLT), FLT),
        AggregateCall("count", None, INT),
        AggregateCall("min", InputRef(nkeys, FLT), FLT),
        AggregateCall("max", InputRef(nkeys, FLT), FLT),
        AggregateCall("avg", InputRef(nkeys, FLT), FLT),
    ]
    pschema = partial_agg_schema(in_schema, list(range(nkeys)), calls)
    out_schema = Schema.of(
        *[(f"k{i}", t) for i, t in enumerate(key_types)],
        ("s", FLT), ("c", INT), ("mn", FLT), ("mx", FLT), ("a", FLT),
    )

    def random_page(max_rows):
        n = int(rng.integers(0, max_rows))
        return _page(col_types, [_gen_key_column(rng, t, n) for t in key_types]
                     + [rng.normal(size=n)])

    # Two partial operators simulate two drivers; their flushes interleave
    # at the (single) final operator — the paper's two-stage model.
    partial_rows = []
    for _ in range(2):
        partial = PartialAggOperator(
            COST, list(range(nkeys)), calls, pschema,
            group_limit=int(rng.integers(4, 40)),  # force mid-stream flushes
        )
        pages = [random_page(50) for _ in range(int(rng.integers(1, 4)))]
        partial_rows.append((pages, _drain(partial, pages)))

    final = FinalAggOperator(COST, nkeys, calls, out_schema)
    final_inputs = [
        Page.from_rows(pschema, rows) for _, rows in partial_rows if rows
    ]
    result = _drain(final, final_inputs)

    all_rows = [r for pages, _ in partial_rows for p in pages for r in p.rows()]
    expected = _dict_aggregate(all_rows, nkeys)
    got = _norm_rows(result)
    want = _norm_rows(expected)
    assert [r[:nkeys] for r in got] == [r[:nkeys] for r in want]
    for g, w in zip(got, want):
        for gv, wv in zip(g[nkeys:], w[nkeys:]):
            assert gv == pytest.approx(wv, rel=1e-9, abs=1e-9)


def test_grouped_string_min_max_through_operators():
    in_schema = Schema.of(("k", INT), ("v", STR))
    calls = [
        AggregateCall("min", InputRef(1, STR), STR),
        AggregateCall("max", InputRef(1, STR), STR),
    ]
    pschema = partial_agg_schema(in_schema, [0], calls)
    partial = PartialAggOperator(COST, [0], calls, pschema)
    pages = [
        Page.from_rows(in_schema, [(1, "pear"), (2, "fig"), (1, "apple")]),
        Page.from_rows(in_schema, [(2, "quince"), (1, "mango")]),
    ]
    rows = _drain(partial, pages)
    final = FinalAggOperator(
        COST, 1, calls, Schema.of(("k", INT), ("mn", STR), ("mx", STR))
    )
    result = _drain(final, [Page.from_rows(pschema, rows)])
    assert sorted(result) == [(1, "apple", "pear"), (2, "fig", "quince")]


# ---------------------------------------------------------------------------
# rows -> slots: the table path against the dict regimes
# ---------------------------------------------------------------------------
_POOL = ["ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew", "zelkova"]
_AGG_VALUE_TYPES = [FLT, INT, STR]  # the columns v, w, t after the keys


def _fresh_dict_column(rng, values):
    """``values`` over a dictionary of its own — shuffled entries, an
    unused one among them — as a page read back from spill has."""
    entries = list(dict.fromkeys(values)) + ["unused"]
    entries = [entries[i] for i in rng.permutation(len(entries))]
    return DictColumn([entries.index(v) for v in values], entries)


def _agg_stream(rng, key_kinds, npages, max_rows, min_rows=0):
    """Pages ``(keys..., v FLOAT, w INT, t STRING)`` whose key domains
    grow along the stream, so values are first seen mid-stream; three
    such keys stay under 9 * 8 * 8 combinations, within the table's floor."""
    key_types = [STR if kind == "dict" else INT for kind in key_kinds]
    schema = _key_schema(key_types + _AGG_VALUE_TYPES)
    pages = []
    for i in range(npages):
        n = int(rng.integers(min_rows, max_rows))
        reach = 2 + i  # how much of each domain this page may draw from
        columns = []
        for kind in key_kinds:
            if kind == "dict":
                words = [_POOL[j] for j in rng.integers(0, min(reach, len(_POOL)), size=n)]
                columns.append(_fresh_dict_column(rng, words))
            elif kind == "small":
                columns.append(rng.integers(-min(reach, 4), min(reach, 4), size=n))
            elif kind == "edge":  # down to the lowest int64, a step per page
                low = np.iinfo(np.int64).min
                columns.append(low + rng.integers(max(0, 3 - i), 4, size=n))
            else:  # values a table cannot span
                columns.append(rng.integers(-(10**9), 10**9, size=4)[rng.integers(0, 4, size=n)])
        columns.append(rng.normal(size=n) * 1e6)
        columns.append(rng.integers(-(2**40), 2**40, size=n))
        columns.append(_fresh_dict_column(rng, [_POOL[j] for j in rng.integers(0, len(_POOL), size=n)]))
        pages.append(Page(schema, columns))
    return schema, pages


#: How rows reach their slots: as the data decides, or forced from the
#: first page to the dict of packed codes or to the dict of key tuples.
REGIMES = {
    "direct": lambda state: None,
    "packed": lambda state: setattr(state, "_table", None),
    "tuples": lambda state: state._stop_packing(),
}


def _two_stage(schema, nkeys, pages, group_limit, regime, row_limit=5):
    """Output pages (as row lists) of partial then final aggregation,
    both operators' states put in ``regime`` first."""
    v, w, t = (InputRef(nkeys + i, typ) for i, typ in enumerate(_AGG_VALUE_TYPES))
    calls = [
        AggregateCall("sum", v, FLT), AggregateCall("avg", v, FLT),
        AggregateCall("count", None, INT), AggregateCall("min", v, FLT),
        AggregateCall("max", v, FLT), AggregateCall("sum", w, INT),
        AggregateCall("avg", w, FLT), AggregateCall("min", t, STR),
        AggregateCall("max", t, STR),
    ]
    keys = list(range(nkeys))
    pschema = partial_agg_schema(schema, keys, calls)
    out_schema = Schema.of(
        *[(f.name, f.type) for f in schema.fields[:nkeys]],
        *[(f"a{i}", call.result_type) for i, call in enumerate(calls)],
    )
    partial = PartialAggOperator(
        COST, keys, calls, pschema, row_limit=row_limit, group_limit=group_limit
    )
    final = FinalAggOperator(COST, nkeys, calls, out_schema, row_limit=row_limit)
    for op in (partial, final):
        REGIMES[regime](op.state)
    partial_pages = [
        out for page in pages + [Page.end()] for out in partial.process(page)[0]
    ]
    final_pages = [out for page in partial_pages for out in final.process(page)[0]]
    as_rows = lambda outs: [out.rows() for out in outs if not out.is_end]
    return as_rows(partial_pages), as_rows(final_pages), (partial, final)


def _assert_regimes_agree(schema, nkeys, pages, group_limit, **kwargs):
    """Same pages, same rows, same order, floats ``==`` in every regime;
    returns the direct run's operators."""
    direct = _two_stage(schema, nkeys, pages, group_limit, "direct", **kwargs)
    for regime in ("packed", "tuples"):
        forced = _two_stage(schema, nkeys, pages, group_limit, regime, **kwargs)
        assert direct[:2] == forced[:2], regime
    return direct[2]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_kinds=st.lists(
        st.sampled_from(["dict", "small", "large", "edge"]), min_size=1, max_size=3
    ),
    npages=st.integers(1, 8),
    group_limit=st.integers(2, 40),
)
# The final state once widened one key to 24 values and then gave up its
# table for the union with that widened packing (24 x 17 x 17 cells)
# while the keys it held span 8 x 9 x 9, under the table's floor.
@example(seed=0, key_kinds=["small", "dict", "dict"], npages=8, group_limit=2)
def test_table_path_emits_what_the_page_local_path_emits(
    seed, key_kinds, npages, group_limit
):
    """How rows reach their slots is invisible downstream (DESIGN.md §8,
    invariants 1-2)."""
    schema, pages = _agg_stream(np.random.default_rng(seed), key_kinds, npages, 40)
    ops = _assert_regimes_agree(schema, len(key_kinds), pages, group_limit)
    if "large" not in key_kinds:
        assert all(op.state._table is not None for op in ops)


def _wide_stream(rng, direction, words, npages):
    """A first page of 4,500 distinct integers, then pages of 1-8 rows:
    the state holds 1,000x more groups than a page has rows.  A page
    draws its integers near the top of the range — keys held and keys
    past it, a narrow window of slots — or from the whole range — slots
    far apart.  The integer key escapes its range ``up`` or ``down``
    page after page; a second, word key (``words``) learns its values
    late."""
    schema = _key_schema([INT] + [STR] * words + _AGG_VALUE_TYPES)
    sign = 1 if direction == "up" else -1
    pages = []
    for i in range(npages):
        n = 4500 if i == 0 else int(rng.integers(1, 9))
        top = 4500 + 40 * i
        if i == 0:
            ints = rng.permutation(n)
        else:
            ints = rng.integers(top - 60 if rng.integers(2) else 0, top, size=n)
        columns = [sign * ints]
        if words:
            reach = min(2 + i, len(_POOL))
            columns.append(_fresh_dict_column(rng, [_POOL[j] for j in rng.integers(0, reach, size=n)]))
        columns.append(rng.normal(size=n) * 1e6)
        columns.append(rng.integers(-(2**40), 2**40, size=n))
        columns.append(_fresh_dict_column(rng, [_POOL[j] for j in rng.integers(0, len(_POOL), size=n)]))
        pages.append(Page(schema, columns))
    return schema, pages


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    direction=st.sampled_from(["up", "down"]),
    words=st.integers(0, 1),
    npages=st.integers(2, 20),
    group_limit=st.sampled_from([4501, 4530, 10**6]),
)
def test_regimes_agree_when_the_state_dwarfs_the_page(
    seed, direction, words, npages, group_limit
):
    """Pages that touch few of many held groups — in a narrow window of
    slots or far apart — a range growing down or up, flushes in
    mid-stream and 1-row pages: still one answer."""
    schema, pages = _wide_stream(np.random.default_rng(seed), direction, words, npages)
    ops = _assert_regimes_agree(schema, 1 + words, pages, group_limit, row_limit=8192)
    if group_limit > 10**5 and not words:
        # Unflushed, the 4,500 groups pay for the table throughout (with
        # a word column the key space outgrows 8 cells per group).
        assert all(op.state._table is not None for op in ops)


def test_table_path_hands_over_mid_stream_when_the_table_outgrows_its_page():
    # Words x a widening integer: the table passes its bound (8 cells per
    # group plus 24 per page row plus 1,024) on the third page, with
    # groups of the first two already in the state.
    rng = np.random.default_rng(3)
    schema, pages = _agg_stream(rng, ["dict", "small"], 3, 30, min_rows=25)
    wide = pages[-1]
    spread = np.arange(wide.num_rows) * 4000  # >= 25 rows: span >= 96,001, x 4 words
    pages[-1] = Page(schema, [wide.columns[0], spread] + list(wide.columns[2:]))
    v, w, t = (InputRef(2 + i, typ) for i, typ in enumerate(_AGG_VALUE_TYPES))
    calls = [AggregateCall("sum", v, FLT), AggregateCall("min", t, STR)]
    pschema = partial_agg_schema(schema, [0, 1], calls)

    def run(regime):
        op = PartialAggOperator(COST, [0, 1], calls, pschema)
        REGIMES[regime](op.state)
        left_at = None
        for i, page in enumerate(pages):
            assert op.process(page)[0] == []
            if left_at is None and op.state._table is None:
                left_at = i
        return [out.rows() for out in op.process(Page.end())[0][:-1]], left_at

    direct, left_at = run("direct")
    assert left_at == 2
    assert direct == run("packed")[0] == run("tuples")[0]


def test_a_few_rows_spread_wide_get_no_large_table():
    # Ten rows whose two integer keys span 151 x 301 = 45,451 packed codes:
    # a table would be ~360 KB of scratch no budget sees, so they take the
    # packed dict (the bound is 8 cells per group + 24 per row + 1,024).
    schema = _key_schema([INT, INT, FLT])
    a, b = np.arange(10) % 2 * 150, np.arange(10) % 3 * 150
    page = Page(schema, [a, b, np.ones(10)])
    calls = [AggregateCall("sum", InputRef(2, FLT), FLT)]
    op = PartialAggOperator(COST, [0, 1], calls, partial_agg_schema(schema, [0, 1], calls))
    op.process(page)
    assert op.state._table is None and op.state._radices is not None
    assert sorted(op.process(Page.end())[0][0].rows()) == sorted(
        (x, y, float(((a == x) & (b == y)).sum()))
        for x, y in set(zip(a.tolist(), b.tolist()))
    )


# ---------------------------------------------------------------------------
# group_codes int64-overflow fallback (regression)
# ---------------------------------------------------------------------------
def _oracle_codes(key_cols):
    tuples = list(zip(*[c.tolist() for c in key_cols]))
    ranked = {key: i for i, key in enumerate(sorted(set(tuples)))}
    return [ranked[key] for key in tuples]


def test_group_codes_overflow_falls_back_to_lexsort():
    # 11 int columns with ~100 distinct values each: the mixed-radix
    # product is ~1e22 > int64 max, so packing must take the lexsort
    # fallback instead of silently wrapping around.
    rng = np.random.default_rng(11)
    key_cols = [rng.integers(0, 100, size=400) for _ in range(11)]
    codes, uniques = group_codes(key_cols)
    assert _oracle_codes(key_cols) == codes.tolist()
    for j, uniq in enumerate(uniques):
        np.testing.assert_array_equal(uniq[codes], key_cols[j])


def test_group_codes_overflow_with_wide_value_spans():
    # Small distinct counts but astronomically wide value ranges: the
    # all-int span-packing fast path must detect overflow and defer.
    rng = np.random.default_rng(13)
    base = np.array([-(2**62), 0, 2**62], dtype=np.int64)
    key_cols = [base[rng.integers(0, 3, size=200)] for _ in range(4)]
    codes, uniques = group_codes(key_cols)
    assert _oracle_codes(key_cols) == codes.tolist()
    for j, uniq in enumerate(uniques):
        np.testing.assert_array_equal(uniq[codes], key_cols[j])


def _per_column_pack(key_columns):
    """Multi-column codes as they were computed before the one lexsort:
    ``np.unique`` per column, then once more over the mixed-radix packed
    per-column codes (a lexsort over them past int64)."""
    codes, uniques = zip(*(
        (inv.astype(np.int64), uniq)
        for uniq, inv in (np.unique(col, return_inverse=True) for col in key_columns)
    ))
    if math.prod(max(1, len(u)) for u in uniques) > np.iinfo(np.int64).max:
        order = np.lexsort(codes[::-1])
        boundary = np.zeros(len(order), dtype=bool)
        for col in codes:
            boundary[1:] |= col[order][1:] != col[order][:-1]
        out = np.empty(len(order), dtype=np.int64)
        out[order] = np.cumsum(boundary)
        return out
    combined = codes[0]
    for inv, uniq in zip(codes[1:], uniques[1:]):
        combined = combined * len(uniq) + inv
    return np.unique(combined, return_inverse=True)[1].astype(np.int64)


_NEAR_OVERFLOW = np.array([-(2**63), -(2**63) + 1, -1, 0, 2**62, 2**63 - 2, 2**63 - 1])
_SIGNED_ZERO_NAN = np.array([-0.0, 0.0, np.nan, -np.nan, 1.5, -np.inf, np.inf])


def _random_key_column(rng, kind, n):
    if kind == "float":
        return _SIGNED_ZERO_NAN[rng.integers(0, len(_SIGNED_ZERO_NAN), size=n)]
    if kind == "extreme":
        return _NEAR_OVERFLOW[rng.integers(0, len(_NEAR_OVERFLOW), size=n)]
    if kind == "date":
        return rng.integers(8035, 10591, size=n)  # 1992-01-01 .. 1998-12-31
    if kind == "dict":
        return _fresh_dict_column(rng, [_POOL[i] for i in rng.integers(0, 4, size=n)])
    return rng.integers(-3, 3, size=n)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(
        st.sampled_from(["float", "extreme", "date", "dict", "small"]), min_size=2, max_size=5
    ),
    n=st.integers(0, 60),
)
def test_one_lexsort_assigns_the_per_column_codes(seed, kinds, n):
    """``-0.0 == 0.0``, one NaN group, spans past int64: the one sort
    numbers groups exactly as per-column factorization did."""
    rng = np.random.default_rng(seed)
    columns = [_random_key_column(rng, kind, n) for kind in kinds]
    got = functions._factorized_pack(columns)
    assert got.dtype == np.int64
    assert got.tolist() == _per_column_pack(columns).tolist()


def test_group_codes_mixed_string_and_numeric_columns():
    key_cols = [
        DictColumn.from_values(["b", "a", "b", "a"]),
        np.array([2, 1, 2, 2]),
    ]
    codes, uniques = group_codes(key_cols)
    assert _oracle_codes(key_cols) == codes.tolist()
    assert uniques[0].tolist() == ["a", "a", "b"]
    assert uniques[1].tolist() == [1, 2, 2]


# ---------------------------------------------------------------------------
# supporting structures
# ---------------------------------------------------------------------------
def test_group_key_encoder_codes_are_stable_across_batches():
    enc = GroupKeyEncoder()
    a = enc.encode(DictColumn.from_values(["x", "y", "x"]))
    # A second page over another dictionary (other entry order, a new
    # value): known values keep their codes, the new one gets the next.
    b = enc.encode(DictColumn.from_values(["z", "y", "x"]))
    assert a.tolist() == [0, 1, 0]
    assert b.tolist() == [2, 1, 0]
    assert enc.values == ["x", "y", "z"]
    # Unseen values of one page are numbered in value order, whatever
    # their row or dictionary order.
    c = enc.encode(DictColumn([2, 0, 1], ["q", "b", "m"]))
    assert c.tolist() == [4, 5, 3]
    assert enc.values == ["x", "y", "z", "b", "m", "q"]


def test_page_num_rows_is_cached():
    page = _page([INT], [[1, 2, 3]])
    # Computed once at construction (plain attribute, no property call).
    assert page.num_rows == 3
    assert page.size_bytes > 0  # reuses the cached count
    assert Page.end().num_rows == 0
