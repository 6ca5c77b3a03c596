"""Unit and property tests for the columnar page layer."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.pages import (
    ColumnType,
    DictColumn,
    Field,
    MaskedColumn,
    Page,
    Schema,
    concat_pages,
)
from repro.pages.dictcolumn import StringDictionary

INT = ColumnType.INT64
STR = ColumnType.STRING
FLT = ColumnType.FLOAT64


def sample_schema():
    return Schema.of(("k", INT), ("v", FLT), ("name", STR))


def sample_page(n=5):
    return Page.from_dict(
        sample_schema(),
        {"k": range(n), "v": [float(i) * 1.5 for i in range(n)], "name": [f"s{i}" for i in range(n)]},
    )


# -- schema -----------------------------------------------------------------
def test_schema_lookup_and_types():
    schema = sample_schema()
    assert schema.index_of("v") == 1
    assert schema.field("name").type is STR
    assert schema.names() == ["k", "v", "name"]
    assert len(schema) == 3


def test_schema_missing_column_raises():
    with pytest.raises(KeyError):
        sample_schema().index_of("nope")


def test_schema_select_concat_rename():
    schema = sample_schema()
    sub = schema.select([2, 0])
    assert sub.names() == ["name", "k"]
    joined = schema.concat(sub)
    assert len(joined) == 5
    renamed = sub.rename(["a", "b"])
    assert renamed.names() == ["a", "b"]
    assert renamed.field("a").type is STR


def test_schema_duplicate_names_keep_first():
    schema = Schema.of(("x", INT), ("x", STR))
    assert schema.index_of("x") == 0


def test_schema_equality_and_hash():
    assert sample_schema() == sample_schema()
    assert hash(sample_schema()) == hash(sample_schema())


def test_column_type_coerce_string():
    # Python values come in as a dictionary-encoded column that reads
    # back as the same values, cell by cell and as a list; ``None`` is a
    # NULL, the validity mask over the dictionary-encoded values.
    col = STR.coerce(["a", "b", "a", None])
    assert isinstance(col, MaskedColumn) and isinstance(col.values, DictColumn)
    assert list(col) == ["a", "b", "a", None]
    assert [col[i] for i in range(len(col))] == ["a", "b", "a", None]
    assert col.valid.tolist() == [True, True, True, False]
    assert None not in col.values.dictionary.values.tolist()
    assert STR.coerce(col) is col
    plain = STR.coerce(["a", "b", "a"])
    assert isinstance(plain, DictColumn) and len(plain.dictionary) == 2


def test_page_encodes_string_columns_on_construction():
    raw = np.array(["x", "y", "x"], dtype=object)
    page = Page(Schema.of(("k", INT), ("name", STR)), [np.arange(3), raw])
    assert isinstance(page.columns[1], DictColumn)
    assert page.rows() == [(0, "x"), (1, "y"), (2, "x")]


def test_column_type_fixed_width():
    assert INT.fixed_width == 8
    assert STR.fixed_width is None


# -- pages -----------------------------------------------------------------
def test_page_basic_accessors():
    page = sample_page()
    assert page.num_rows == 5
    assert not page.is_end
    assert page.column("k")[2] == 2
    assert page.column(2)[0] == "s0"


def test_page_rows_materialisation():
    rows = sample_page(3).rows()
    assert rows == [(0, 0.0, "s0"), (1, 1.5, "s1"), (2, 3.0, "s2")]


def test_page_mask_take_slice_select():
    page = sample_page(6)
    masked = page.mask(np.array([True, False] * 3))
    assert [r[0] for r in masked.rows()] == [0, 2, 4]
    taken = page.take(np.array([5, 0]))
    assert [r[0] for r in taken.rows()] == [5, 0]
    sliced = page.slice(1, 3)
    assert [r[0] for r in sliced.rows()] == [1, 2]
    projected = page.select([2])
    assert projected.schema.names() == ["name"]


def test_page_size_accounts_for_strings():
    page = sample_page(10)
    ints_only = page.select([0, 1])
    assert page.size_bytes > ints_only.size_bytes


def test_end_page():
    end = Page.end(signal="shutdown")
    assert end.is_end
    assert end.signal == "shutdown"
    assert end.num_rows == 0
    assert end.rows() == []


def test_page_arity_mismatch_raises():
    with pytest.raises(ValueError):
        Page(sample_schema(), [np.arange(3)])


def test_concat_pages():
    merged = concat_pages(sample_schema(), [sample_page(2), Page.end(), sample_page(3)])
    assert merged.num_rows == 5


def test_concat_pages_empty_input():
    merged = concat_pages(sample_schema(), [])
    assert merged.num_rows == 0
    assert len(merged.columns) == 3


# -- splitter ---------------------------------------------------------------
def test_split_empty_page_yields_nothing():
    assert sample_page(0).split(4) == []


def test_split_below_and_at_limit_is_the_page_itself():
    for n in (1, 3, 4):
        page = sample_page(n)
        assert page.split(4) == [page]


def test_split_above_limit_respects_limit():
    pages = sample_page(10).split(4)
    assert [p.num_rows for p in pages] == [4, 4, 2]
    assert all(p.schema == sample_schema() for p in pages)


def test_split_slices_dict_columns_over_one_dictionary():
    page = sample_page(10)
    names = page.column("name")
    pages = page.split(4)
    assert all(type(p.column("name")) is DictColumn for p in pages)
    assert all(p.column("name").dictionary is names.dictionary for p in pages)
    assert [v for p in pages for v in p.column("name").tolist()] == names.tolist()


def test_split_rejects_bad_limits():
    for limit in (0, -1):
        with pytest.raises(ValueError):
            sample_page(3).split(limit)


def _sample_rows(start, stop):
    return [(i, i * 1.5, f"s{i}") for i in range(start, stop)]


#: What ``PageBuilder(schema, 4)`` — ``append_columns`` +
#: ``build_full_pages`` + ``flush``, the sequence all four of its callers
#: ran — emitted for ``sample_page(n)``; recorded at the commit that
#: deleted the class (ISSUE 20).
_PAGE_BUILDER_OUTPUT = {
    0: [],
    3: [_sample_rows(0, 3)],
    4: [_sample_rows(0, 4)],
    10: [_sample_rows(0, 4), _sample_rows(4, 8), _sample_rows(8, 10)],
}


@pytest.mark.parametrize("n", sorted(_PAGE_BUILDER_OUTPUT))
def test_split_emits_what_page_builder_emitted(n):
    assert [p.rows() for p in sample_page(n).split(4)] == _PAGE_BUILDER_OUTPUT[n]


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=0, max_size=200),
       st.integers(min_value=1, max_value=16))
def test_split_preserves_rows_property(values, limit):
    schema = Schema.of(("x", INT))
    pages = Page(schema, [np.array(values, dtype=np.int64)]).split(limit)
    assert [r[0] for p in pages for r in p.rows()] == values
    assert all(0 < p.num_rows <= limit for p in pages)
    assert all(p.num_rows == limit for p in pages[:-1])


def test_null_has_one_representation():
    """NULL is the validity mask and nothing else: no NaN sentinel in the
    engine's source, and no dictionary holds ``None``."""
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    sentinel = re.compile(r'float\("nan"\)|np\.nan\b')
    hits = [
        f"{path.relative_to(root)}:{number}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if sentinel.search(line)
    ]
    assert hits == []
    with pytest.raises(ValueError, match="no None"):
        StringDictionary(["a", None])
    with pytest.raises(ValueError, match="no None"):
        DictColumn.from_values(["a", None])
