"""How a table stores its columns: at the narrowest exact width, widened
to the page dtype by ``Table.read`` (DESIGN.md §10)."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AccordionEngine
from repro.data import Catalog, Table
from repro.data.table import _STEP_ROWS, HUNDREDTHS, measure, narrowest, stored_form
from repro.data.tpch import dataset_cache
from repro.data.tpch.dataset_cache import CACHE_DIR_ENV, clear_dataset_cache, load_tpch_tables
from repro.data.tpch.queries import QUERIES
from repro.errors import ExecutionError
from repro.pages import ColumnType, DictColumn, Field, MaskedColumn, Schema

INT, FLT, STR, DATE = ColumnType.INT64, ColumnType.FLOAT64, ColumnType.STRING, ColumnType.DATE


def stored(table: Table, name: str):
    """Column ``name`` as ``table`` stores it (codes for a string)."""
    col = table._stored[table.schema.index_of(name)]
    return col.codes if isinstance(col, DictColumn) else col


def bits(data: np.ndarray) -> np.ndarray:
    return data.view(np.int64) if data.dtype == np.float64 else data


def table_of(values: np.ndarray, source: str) -> Table:
    """A one-column table of ``values``: generated (registered in
    memory), or loaded as the dataset cache loads an archive member,
    measured and encoded a 256 KiB chunk at a time (and read once)."""
    typ = FLT if values.dtype.kind == "f" else INT
    if source == "generated":
        return Table("t", Schema.of(("x", typ)), [values])
    buffer = io.BytesIO()
    np.savez(buffer, x=values)
    buffer.seek(0)
    archive = np.load(buffer, allow_pickle=False)
    spec, widths = dataset_cache._member(archive, "x", measure)
    spec += stored_form(widths, spec[0])
    column = dataset_cache._read(archive, "x", spec)
    table = Table.lazy("t", Schema.of(("x", typ)), [lambda: column], len(values), 0, [spec[4]])
    table.read(0, 0, 0)
    return table


def assert_reads_are_canonical(table: Table, canonical: list, rng) -> None:
    """``Table.read`` over random ranges equals the canonical slice in
    dtype and bits, for every column."""
    for i, (field, whole) in enumerate(zip(table.schema, canonical)):
        for _ in range(4):
            start = int(rng.integers(0, table.num_rows + 1))
            stop = int(rng.integers(start, table.num_rows + 1))
            got, want = table.read(i, start, stop), whole[start:stop]
            if field.type is STR:
                assert got.dictionary is want.dictionary
                got, want = got.codes, want.codes
            assert got.dtype == want.dtype == (
                np.int32 if field.type is STR else field.type.numpy_dtype
            ), field.name
            assert np.array_equal(bits(got), bits(want)), field.name


@pytest.mark.parametrize("source", ["generated", "archive"])
def test_every_tpch_column_reads_back_bit_for_bit(monkeypatch, tmp_path, source):
    """All eight tables at SF0.005, generated and loaded from an archive:
    every range read is the canonical column's slice, bit for bit."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    generated = load_tpch_tables(0.005, 777)
    canonical = {
        name: [
            col if isinstance(col, DictColumn) else col.copy() for col in table.columns
        ]
        for name, table in generated.items()
    }
    tables = generated
    if source == "archive":
        clear_dataset_cache()
        tables = load_tpch_tables(0.005, 777)
        assert tables is not generated
    rng = np.random.default_rng(7)
    for name, table in tables.items():
        if source == "archive":  # over the archive's own dictionaries
            canonical[name] = [
                col if isinstance(col, DictColumn) else canonical[name][i]
                for i, col in enumerate(table.columns)
            ]
        assert_reads_are_canonical(table, canonical[name], rng)
    for name, table in generated.items():
        for field, col, loaded in zip(table.schema, table.columns, tables[name].columns):
            if field.type is STR:
                assert col.tolist() == loaded.tolist(), field.name
    clear_dataset_cache()


@pytest.mark.parametrize(
    "values",
    [
        np.array([1.0, -0.0, 2.0]),
        np.array([1.0, np.nan, 2.0]),
        np.array([1.0, 2.125, 3.0]),
        np.array([1.0, np.inf, 3.0]),
        np.array([1.0, 2.0**40]),
        np.array([0, 2**31], dtype=np.int64),
        np.array([-(2**31) - 1, 0], dtype=np.int64),
    ],
    ids=["negative-zero", "nan", "fraction", "inf", "float-beyond-int32", "int64-beyond-int32", "int64-below-int32"],
)
def test_columns_no_narrow_width_holds_stay_full_width(values):
    schema = Schema.of(("x", FLT if values.dtype.kind == "f" else INT))
    table = Table("t", schema, [values])
    assert stored(table, "x").dtype == values.dtype
    assert np.array_equal(bits(table.column("x")), bits(values))


@pytest.mark.parametrize(
    "values, width",
    [
        ([0, 127, -128], np.int8),
        ([0, 128], np.int16),
        ([-32768, 32767], np.int16),
        ([0, 32768], np.int32),
        ([2**31 - 1, -(2**31)], np.int32),
        ([1.0, 50.0, 0.0], np.int8),
        ([0.0, 40000.0], np.int32),
    ],
)
def test_integer_exact_columns_take_their_narrowest_width(values, width):
    typ = FLT if isinstance(values[0], float) else INT
    table = Table("t", Schema.of(("x", typ)), [np.array(values, dtype=typ.numpy_dtype)])
    assert stored(table, "x").dtype == width
    column = table.column("x")
    assert column.dtype == typ.numpy_dtype and column.tolist() == values


SOURCES = pytest.mark.parametrize("source", ["generated", "archive"])


@SOURCES
@pytest.mark.parametrize(
    "values, width",
    [
        ([0.01, -1.28, 1.27], np.int8),
        ([0.5, 327.67, -327.68], np.int16),
        ([0.99, 327.68], np.int32),
        ([21474836.47, -21474836.48], np.int32),
    ],
)
def test_hundredths_take_their_narrowest_width(source, values, width):
    """A FLOAT64 column of hundredths is stored as ``k`` (the value
    times 100) at the narrowest width, and reads back bit for bit."""
    values = np.array(values)
    table = table_of(values, source)
    assert table.column("x").dtype == np.float64
    assert stored(table, "x").dtype == width
    assert np.array_equal(stored(table, "x"), np.rint(values * HUNDREDTHS))
    assert np.array_equal(bits(table.column("x")), bits(values))
    assert np.array_equal(bits(table.read(0, 1, len(values))), bits(values[1:]))


@SOURCES
@pytest.mark.parametrize(
    "values",
    [
        [0.25, -0.0],
        [0.25, np.nan],
        [0.25, np.inf],
        [0.25, -np.inf],
        [0.25, 0.1 + 0.2],
        [0.25, 1e-3],
        [0.25, 2**31 / HUNDREDTHS],
    ],
    ids=["negative-zero", "nan", "inf", "minus-inf", "sum", "thousandth", "beyond-int32"],
)
def test_floats_that_are_not_hundredths_stay_full_width(source, values):
    values = np.array(values)
    table = table_of(values, source)
    assert stored(table, "x").dtype == np.float64
    assert np.array_equal(bits(table.column("x")), bits(values))


@SOURCES
def test_a_later_chunk_that_is_not_hundredths_keeps_the_column_full_width(source):
    """The first chunk (``_STEP_ROWS`` rows generated, 256 KiB from an
    archive) is exact in hundredths, a later one is not."""
    assert _STEP_ROWS * 8 == 1 << 18 == dataset_cache._CHUNK_BYTES
    values = np.full(_STEP_ROWS + 10, 0.25)
    assert stored(table_of(values, source), "x").dtype == np.int8
    values[-1] = 0.125
    table = table_of(values, source)
    assert stored(table, "x").dtype == np.float64
    assert np.array_equal(bits(table.column("x")), bits(values))


@SOURCES
@settings(max_examples=60, deadline=None)
@given(
    k=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=50),
    integral=st.booleans(),
)
def test_hundredths_read_back_bit_for_bit(source, k, integral):
    """Any column of hundredths is stored at the narrowest width of its
    ``k``, or of its integers when every value is one (``float64`` past
    ``int32``), and reads back bit for bit."""
    k = np.array(k, dtype=np.int64) * (100 if integral else 1)
    values = k / HUNDREDTHS
    width = narrowest(k if (k % 100).any() else k // 100)
    table = table_of(values, source)
    assert stored(table, "x").dtype == (np.float64 if width == np.int64 else width)
    assert np.array_equal(bits(table.column("x")), bits(values))
    start = len(values) // 2
    assert np.array_equal(bits(table.read(0, start, len(values))), bits(values[start:]))


def test_the_width_covers_every_chunk():
    """A column measured chunk by chunk takes the width its widest chunk
    needs, and a float chunk that is not exact in hundredths keeps it
    whole."""
    values = np.zeros(1 << 17, dtype=np.int64)
    values[-1] = 1000
    assert stored(Table("t", Schema.of(("x", INT)), [values]), "x").dtype == np.int16
    floats = np.ones(1 << 17)
    floats[-1] = 0.125
    assert stored(Table("t", Schema.of(("x", FLT)), [floats]), "x").dtype == np.float64
    assert narrowest(np.array([1, 2]), np.dtype(np.int32)) == np.int32
    assert narrowest(np.array([], dtype=np.int64)) == np.int64


@pytest.mark.parametrize("entries, width", [(256, np.uint8), (257, np.uint16), (65537, np.int32)])
def test_dictionary_codes_take_the_width_of_their_dictionary(entries, width):
    values = [f"v{i}" for i in range(entries)]
    table = Table("t", Schema.of(("s", STR)), [DictColumn.from_values(values)])
    assert stored(table, "s").dtype == width
    column = table.column("s")
    assert column.codes.dtype == np.int32 and column.tolist() == values


def test_a_column_with_a_null_is_stored_as_given():
    column = INT.coerce([1, None, 3])
    table = Table("t", Schema.of(("x", INT)), [column])
    assert table._stored[0] is column
    assert table.read(0, 0, 3).tolist() == [1, None, 3]
    assert table.read(0, 2, 3).tolist() == [3]


@pytest.mark.parametrize("given", ["coerced", "plain"])
def test_a_base_table_holds_a_null_string(given):
    """A STRING column with a NULL registers (it raised ``a dictionary
    holds no None``) and answers like SQL: the NULL is no value."""
    cells = ["x", None, "y"]
    column = STR.coerce(cells) if given == "coerced" else cells
    table = Table("t", Schema.of(("s", STR), ("k", INT)), [column, [1, 2, 3]])
    assert isinstance(table.column("s"), MaskedColumn)
    assert table.to_page().rows() == [("x", 1), (None, 2), ("y", 3)]
    catalog = Catalog()
    catalog.register(table)
    engine = AccordionEngine(catalog)
    assert engine.execute("select count(*) from t where s is null").rows == [(1,)]
    assert engine.execute("select count(s), min(s), max(s) from t").rows == [(2, "x", "y")]
    rows = engine.execute("select s, sum(k) from t group by s").rows
    assert sorted(rows, key=repr) == sorted([("x", 1), (None, 2), ("y", 3)], key=repr)


def test_a_lazy_null_under_a_non_nullable_field_fails_its_first_read():
    """Plans bind a non-nullable field as NULL-free (``count(s)`` would
    count the NULL), so a loader returning a NULL under one fails the
    column's first read, naming table and column; a nullable field
    reads the same column."""
    column = STR.coerce(["x", None, "y"])
    table = Table.lazy("t", Schema.of(("s", STR)), [lambda: column], 3, 30)
    catalog = Catalog()
    catalog.register(table)
    with pytest.raises(ExecutionError, match="table t: column s holds a NULL"):
        AccordionEngine(catalog).execute("select count(s), count(*) from t")
    assert table._stored == [None]
    nullable = Table.lazy("t", Schema([Field("s", STR, True)]), [lambda: column], 3, 30)
    assert nullable.to_page().rows() == [("x",), (None,), ("y",)]


def test_q1_and_q6_store_11_bytes_a_row_of_lineitem(monkeypatch, tmp_path):
    """After Q1 and Q6 on an archive catalog at SF0.01, lineitem holds
    exactly their seven columns: 11 bytes a row (48 at full width; 29
    with prices, discounts and taxes stored as ``float64``)."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    load_tpch_tables(0.01, 777)
    clear_dataset_cache()
    catalog = Catalog.tpch(0.01, 777)
    engine = AccordionEngine(catalog)
    engine.execute(QUERIES["Q1"])
    engine.execute(QUERIES["Q6"])
    lineitem = catalog.table("lineitem")
    loaded = {
        field.name: stored(lineitem, field.name).nbytes
        for field, col in zip(lineitem.schema, lineitem._stored)
        if col is not None
    }
    assert sorted(loaded) == sorted([
        "l_quantity", "l_extendedprice", "l_discount", "l_tax",
        "l_returnflag", "l_linestatus", "l_shipdate",
    ])
    assert sum(loaded.values()) == 11 * lineitem.num_rows
    clear_dataset_cache()


def test_archive_dictionaries_are_built_on_first_read(monkeypatch, tmp_path):
    """Loading an archive builds no dictionary; a string column's first
    read builds its one, and every later read shares it."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    load_tpch_tables(0.001, 5)
    clear_dataset_cache()
    built = []
    original = dataset_cache.StringDictionary
    monkeypatch.setattr(
        dataset_cache, "StringDictionary", lambda values: built.append(len(values)) or original(values)
    )
    nation = load_tpch_tables(0.001, 5)["nation"]
    assert built == []
    first = nation.read(1, 0, 5)
    assert built == [25]
    assert nation.read(1, 5, 25).dictionary is first.dictionary and built == [25]
    clear_dataset_cache()
