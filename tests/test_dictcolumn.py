"""Property tests: a DictColumn behaves like the object array it encodes.

Every STRING column is dictionary-encoded (DESIGN.md §18).  The oracle
here is the plain python/object-array semantics the engine had before:
gathers are list indexing, sizes and hashes are per-cell formulas over
``v.encode("utf-8")``, orderings are python string comparisons.  A
``None`` cell is a NULL: the column's validity mask, never an entry.
"""

import zlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.exec.spill import SpillReader, SpillWriter
from repro.exec.operators.sorting import sort_indices
from repro.pages import (
    ColumnType,
    DictColumn,
    MaskedColumn,
    Page,
    Schema,
    concat_pages,
)
from repro.pages.masked import concat_columns, split_nulls
from repro.parallel.pagebuf import decode_arrays, encode_arrays, write_buffers
from repro.sql.functions import group_codes, grouped_max, grouped_min, hash_columns

INT = ColumnType.INT64
STR = ColumnType.STRING
SCHEMA = Schema.of(("k", INT), ("s", STR), ("t", STR))

_FIXED = ["", "a", "b", "None", "héllo → wørld", "日本語", "x" * 1000]
cells = st.one_of(st.none(), st.sampled_from(_FIXED), st.text(max_size=6))
texts = st.one_of(st.sampled_from(_FIXED), st.text(max_size=6))
columns = st.lists(cells, max_size=40)
prop = settings(max_examples=60, deadline=None)


def objects(values) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def page_of(values) -> Page:
    n = len(values)
    return Page(SCHEMA, [np.arange(n), objects(values), objects(values[::-1])])


# -- gathers -----------------------------------------------------------------
@prop
@given(columns, st.data())
def test_take_mask_slice_match_object_array(values, data):
    col, ref = STR.coerce(values), objects(values)
    n = len(values)
    assert len(col) == n and col.tolist() == values
    if None not in values:
        assert np.asarray(col).tolist() == values  # the __array__ escape hatch
    indices = np.array(
        data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=20) if n else st.just([])),
        dtype=np.int64,
    )
    assert col[indices].tolist() == ref[indices].tolist()
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    assert col[keep].tolist() == ref[keep].tolist()
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    assert col[start:stop].tolist() == ref[start:stop].tolist()
    if n:
        i = data.draw(st.integers(0, n - 1))
        assert col[i] == ref[i] or (col[i] is None and ref[i] is None)
    page = page_of(values)
    assert page.take(indices).rows() == [page.rows()[i] for i in indices.tolist()]
    assert page.mask(keep).rows() == [r for r, k in zip(page.rows(), keep) if k]
    assert page.slice(start, stop).rows() == page.rows()[start:stop]


@prop
@given(st.lists(columns, min_size=1, max_size=4), st.data())
def test_concat_same_and_different_dictionaries(parts, data):
    # Different dictionaries: every part encoded on its own.
    separate = [STR.coerce(p) for p in parts]
    flat = [v for p in parts for v in p]
    assert concat_columns(separate).tolist() == flat
    # Same dictionary: slices of one column (what pages of a table are).
    whole = STR.coerce(flat)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(flat)), max_size=3)))
    bounds = [0, *cuts, len(flat)]
    pieces = [whole[a:b] for a, b in zip(bounds, bounds[1:])]
    merged = concat_columns(pieces)
    assert merged.tolist() == flat
    assert split_nulls(merged)[0].dictionary is split_nulls(whole)[0].dictionary
    # A mix of both, through the page-level entry point.
    pages = [page_of(p) for p in parts] + [page_of(flat).slice(0, len(parts[0]))]
    merged_page = concat_pages(SCHEMA, pages)
    assert merged_page.rows() == [r for pg in pages for r in pg.rows()]
    # The merged dictionary carries the entries' accounted lengths over.
    assert merged_page.size_bytes - 64 == sum(pg.size_bytes - 64 for pg in pages)


def test_dictionary_larger_than_column_is_trimmed_on_merge():
    big = DictColumn.from_values([f"v{i}" for i in range(1000)])
    a, b = big[5:7], DictColumn.from_values(["v6", "w"])
    merged = concat_columns([a, b])
    assert merged.tolist() == ["v5", "v6", "v6", "w"]
    assert len(merged.dictionary) == 3


# -- accounting --------------------------------------------------------------
def accounted_size(values) -> int:
    """The size model: 4-byte length prefix + UTF-8 bytes (a NULL has none)."""
    return sum(4 + (0 if v is None else len(v.encode("utf-8"))) for v in values)


@prop
@given(columns)
def test_size_bytes_is_the_per_cell_model(values):
    n = len(values)
    page = page_of(values)
    assert page.size_bytes == 64 + 8 * n + 2 * accounted_size(values)
    assert page.select([1]).size_bytes == 64 + accounted_size(values)


def test_size_bytes_fixed_length_dictionary_shortcut():
    col = DictColumn.from_values(["R", "A", "N", "R"])
    assert col.dictionary.fixed_len == 1 and col.payload_bytes() == 4
    assert DictColumn.from_values(["é", "ab"]).dictionary.fixed_len == 2
    assert DictColumn.from_values(["a", "bc"]).dictionary.fixed_len is None


def per_cell_hash(values) -> list[int]:
    """``hash_columns`` over one string column, as the per-cell loop (every
    NULL hashes as 0)."""
    mix = 0x9E3779B97F4A7C15
    out = []
    for v in values:
        acc = (0 if v is None else zlib.crc32(v.encode("utf-8")) * mix) % (1 << 64)
        out.append(acc ^ (acc >> 29))
    return out


@prop
@given(columns)
def test_hash_columns_is_crc32_of_the_text(values):
    col = STR.coerce(values)
    assert hash_columns([col]).tolist() == per_cell_hash(values)
    # ... whatever the dictionary (or the value under a NULL) looks like.
    padded = STR.coerce(["unused", *values])[1:]
    assert hash_columns([padded]).tolist() == per_cell_hash(values)


# -- serialisation round trips -------------------------------------------------
@prop
@given(columns)
def test_column_buffers_round_trip(values):
    page = page_of(values)
    buffers = page.column_buffers()
    assert all(isinstance(b, bytes) or hasattr(b, "nbytes") for b in buffers)
    back = Page.from_column_buffers(SCHEMA, page.num_rows, buffers)
    assert back.rows() == page.rows()
    assert back.size_bytes == page.size_bytes


@prop
@given(st.lists(columns.filter(len), min_size=1, max_size=3))
def test_spill_write_read_round_trip(tmp_path_factory, parts):
    path = tmp_path_factory.mktemp("spill") / "t.spill"
    writer = SpillWriter(path, SCHEMA)
    pages = [page_of(p) for p in parts]
    charged = [writer.write_page(p) for p in pages]
    writer.close()
    assert [p.rows() for p in SpillReader(path, SCHEMA).read_all()] == [
        p.rows() for p in pages
    ]
    assert path.stat().st_size == writer.bytes_written
    # Charged bytes follow the row-wise model (header + one length and one
    # payload buffer per string column), not the bytes on disk.
    for page, nbytes in zip(pages, charged):
        assert nbytes == 8 * (2 + 5) + page.size_bytes - 64
    assert writer.accounted_bytes == sum(charged)


@prop
@given(st.lists(texts, max_size=40), st.booleans())
def test_pagebuf_round_trip(values, copy):
    arrays = [np.arange(len(values)), DictColumn.from_values(values)]
    meta, buffers, total = encode_arrays(arrays)
    region = bytearray(total)
    write_buffers(memoryview(region), buffers)
    out = decode_arrays(memoryview(region), meta, copy=copy)
    np.testing.assert_array_equal(out[0], arrays[0])
    assert isinstance(out[1], DictColumn) and out[1].tolist() == values


def test_large_dictionary_ships_only_used_entries():
    col = DictColumn.from_values([f"name {i}" for i in range(5000)])[10:14]
    codes, lengths, payload = col.to_buffers()
    assert codes.nbytes == 16 and lengths.nbytes == 16
    assert bytes(payload) == b"name 10name 11name 12name 13"
    assert DictColumn.from_buffers(codes, lengths, payload).tolist() == col.tolist()


# -- ordering and grouping ------------------------------------------------------
@prop
@given(st.lists(texts, min_size=1, max_size=40))
def test_ranks_group_codes_and_extremes_follow_string_order(values):
    col, ref = DictColumn.from_values(values), objects(values)
    ranks, dictionary = col.rank_codes()
    assert np.argsort(ranks, kind="stable").tolist() == sorted(
        range(len(values)), key=values.__getitem__
    )
    assert dictionary.values[dictionary.order[ranks]].tolist() == values
    uniq, inverse = np.unique(ref, return_inverse=True)
    codes, (uniques,) = group_codes([col])
    assert codes.tolist() == inverse.tolist() and uniques.tolist() == uniq.tolist()
    groups = np.arange(len(values)) % 3
    for reduce, pick in ((grouped_min, min), (grouped_max, max)):
        present = sorted(set(groups.tolist()))
        remap = np.searchsorted(present, groups)
        got = reduce(remap, col, len(present)).tolist()
        assert got == [pick(v for v, g in zip(values, groups) if g == p) for p in present]


@prop
@given(st.lists(texts, min_size=1, max_size=30), texts, st.data())
def test_comparisons_match_object_array(values, constant, data):
    col, ref = DictColumn.from_values(values), objects(values)
    other_values = data.draw(st.lists(texts, min_size=len(values), max_size=len(values)))
    other, other_ref = DictColumn.from_values(other_values), objects(other_values)
    for op in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        # Per value, not ``ref <op> constant``: numpy turns a str scalar
        # into a U array first, which drops trailing NULs ('\x00' == '').
        expected = [getattr(v, op)(constant) for v in values]
        assert getattr(col, op)(constant).tolist() == expected
        expected = np.asarray(getattr(ref, op)(other_ref), dtype=bool)
        assert getattr(col, op)(other).tolist() == expected.tolist()
    # Reflected form: ``constant < col``.
    assert (constant < col).tolist() == [constant < v for v in values]


@prop
@given(columns, st.booleans())
def test_string_nulls_are_a_mask_not_an_entry(values, ascending):
    """A NULL string is the column's validity mask over a dictionary of
    text only: the dictionary never sees ``None``, and sorting puts every
    NULL below every value (first ascending, last descending), in row
    order, whatever text lies under it."""
    col = STR.coerce(values)
    codes, valid = split_nulls(col)
    assert None not in codes.dictionary.values.tolist()
    assert (valid is None) == (None not in values)
    assert isinstance(col, MaskedColumn) == (valid is not None)
    page = Page(Schema.of(("s", STR)), [col])
    order = sort_indices(page, [(0, ascending)]).tolist()
    key = lambda i: (values[i] is not None, values[i])  # noqa: E731
    assert order == sorted(range(len(values)), key=key, reverse=not ascending)


def test_predicates_run_once_per_dictionary_entry():
    calls = []

    def starts_with_a(value):
        calls.append(value)
        return value.startswith("a")

    col = DictColumn.from_values(["ab", "b", "ab", "ac", "b"] * 50)
    first = col[:100].test(("like", "a%"), starts_with_a)
    again = col[100:].test(("like", "a%"), starts_with_a)
    assert first.tolist() == [v.startswith("a") for v in col[:100].tolist()]
    assert again.tolist() == [v.startswith("a") for v in col[100:].tolist()]
    assert sorted(calls) == ["ab", "ac", "b"]
    # Only entries that occur are evaluated.
    calls.clear()
    sparse = DictColumn([1, 1], ["unused", "ax"])
    assert sparse.test(("like", "a%"), starts_with_a).tolist() == [True, True]
    assert calls == ["ax"]
