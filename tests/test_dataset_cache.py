"""Dataset cache for generated TPC-H tables: memo, npz roundtrip, keys,
and what an archive load reads when."""

from __future__ import annotations

import gc
import os
import struct
import zipfile

import numpy as np
import pytest
from numpy.lib.npyio import NpzFile

from repro import AccordionEngine, QueryOptions
from repro.data import Catalog, SplitLayout
from repro.data.tpch import dataset_cache
from repro.data.tpch.dataset_cache import (
    CACHE_DIR_ENV,
    CACHE_FORMAT,
    GENERATOR_VERSION,
    cache_file_path,
    clear_dataset_cache,
    load_tpch_tables,
)
from repro.data.tpch.queries import QUERIES
from repro.pages import DictColumn
from repro.pages.dictcolumn import StringDictionary

from test_engine_queries import SQL_SHAPES

SCALE = 0.001
SEED = 424242


def assert_tables_equal(left: dict, right: dict) -> None:
    assert sorted(left) == sorted(right)
    for name in left:
        a, b = left[name], right[name]
        assert a.schema == b.schema
        for field, col_a, col_b in zip(a.schema, a.columns, b.columns):
            assert col_a.dtype == col_b.dtype
            if field.type.fixed_width is None:
                assert isinstance(col_a, DictColumn) and isinstance(col_b, DictColumn)
                assert col_a.tolist() == col_b.tolist()
            else:
                assert np.array_equal(col_a, col_b)
        assert a.size_bytes == b.size_bytes


def test_memo_returns_identical_objects(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    clear_dataset_cache()
    first = load_tpch_tables(SCALE, SEED)
    assert load_tpch_tables(SCALE, SEED) is first
    # A different seed is a different dataset, not a memo hit.
    assert load_tpch_tables(SCALE, SEED + 1) is not first


def test_cache_disabled_regenerates_equal_contents(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    clear_dataset_cache()
    cached = load_tpch_tables(SCALE, SEED)
    fresh = load_tpch_tables(SCALE, SEED, cache=False)
    assert fresh is not cached
    assert_tables_equal(cached, fresh)


def test_npz_roundtrip_is_exact(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    generated = load_tpch_tables(SCALE, SEED)
    path = cache_file_path(SCALE, SEED)
    assert path is not None and path.exists()
    # Drop the memo so the next load must come from the archive.
    clear_dataset_cache()
    reloaded = load_tpch_tables(SCALE, SEED)
    assert reloaded is not generated
    assert_tables_equal(generated, reloaded)


def test_archive_holds_plain_arrays_only(monkeypatch, tmp_path):
    """String columns are stored as int32 codes + a unicode dictionary
    array, so the archive loads without unpickling anything."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    generated = load_tpch_tables(SCALE, SEED)
    with np.load(cache_file_path(SCALE, SEED), allow_pickle=False) as archive:
        codes = archive["lineitem::l_shipmode"]
        entries = archive["lineitem::l_shipmode::dictionary"]
        assert codes.dtype == np.int32 and entries.dtype.kind == "U"
        assert all(archive[key].dtype != object for key in archive.files)
    assert entries[codes].tolist() == generated["lineitem"].column("l_shipmode").tolist()
    # Pages of a reloaded table share the table's dictionary.
    clear_dataset_cache()
    lineitem = load_tpch_tables(SCALE, SEED)["lineitem"]
    column = lineitem.column("l_shipmode")
    assert lineitem.page(0, 10).column("l_shipmode").dictionary is column.dictionary


def test_other_format_archive_is_a_miss_not_a_misread(monkeypatch, tmp_path):
    """A format-1 archive (pickled object arrays under the old name) in the
    cache directory is never opened: the format is part of the file name,
    and a pickled member under the current name is refused, not loaded."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    stale = tmp_path / f"tpch-sf{SCALE!r}-seed{SEED}-v{GENERATOR_VERSION}.npz"
    np.savez(stale, **{"region::r_name": np.array(["WRONG"] * 5, dtype=object)})
    before = stale.read_bytes()
    tables = load_tpch_tables(SCALE, SEED)
    assert tables["region"].column("r_name").tolist()[0] == "AFRICA"
    assert stale.read_bytes() == before
    # Same bytes under the current name: refused (allow_pickle=False),
    # regenerated and replaced by a well-formed archive.
    clear_dataset_cache()
    path = cache_file_path(SCALE, SEED)
    path.write_bytes(before)
    tables = load_tpch_tables(SCALE, SEED)
    assert tables["region"].column("r_name").tolist()[0] == "AFRICA"
    clear_dataset_cache()
    assert_tables_equal(tables, load_tpch_tables(SCALE, SEED))


def test_codes_outside_the_dictionary_are_a_miss(monkeypatch, tmp_path):
    """A well-formed archive whose codes do not index their dictionary is
    regenerated at load, not handed to an operator to fail on later."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    generated = load_tpch_tables(SCALE, SEED)
    path = cache_file_path(SCALE, SEED)
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    for bad in (-1, len(arrays["region::r_name::dictionary"])):
        arrays["region::r_name"] = np.array([0, 1, bad, 3, 4], dtype=np.int32)
        np.savez(path, **arrays)
        clear_dataset_cache()
        assert_tables_equal(generated, load_tpch_tables(SCALE, SEED))


@pytest.mark.parametrize(
    "bad",
    [np.zeros((5, 1), dtype=np.int64), np.zeros(4, dtype=np.int64)],
    ids=["two-dimensional", "short"],
)
def test_a_fixed_width_member_of_the_wrong_shape_is_a_miss(monkeypatch, tmp_path, bad):
    """Fixed-width members are checked from their header without being
    decoded: one of the wrong shape is still a miss at load."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    generated = load_tpch_tables(SCALE, SEED)
    path = cache_file_path(SCALE, SEED)
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["region::r_regionkey"] = bad
    np.savez(path, **arrays)
    clear_dataset_cache()
    assert_tables_equal(generated, load_tpch_tables(SCALE, SEED))
    with np.load(path, allow_pickle=False) as archive:
        assert archive["region::r_regionkey"].shape == (5,)  # rewritten


def test_a_compressed_archive_is_a_miss(monkeypatch, tmp_path):
    """First reads copy a member's bytes straight from the file, so only
    stored members serve; a compressed archive is regenerated."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    generated = load_tpch_tables(SCALE, SEED)
    path = cache_file_path(SCALE, SEED)
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    np.savez_compressed(path, **arrays)
    clear_dataset_cache()
    assert_tables_equal(generated, load_tpch_tables(SCALE, SEED))
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}


@pytest.mark.parametrize("scale", [0.005, 0.01])
def test_archive_dictionaries_count_their_lengths_exactly(monkeypatch, tmp_path, scale):
    """Every dictionary of the benchmark's archives is ASCII, so its
    lengths are counted vectorized; they equal the per-entry UTF-8
    formula exactly, and so does the shared length."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    load_tpch_tables(scale, 20250622)  # generates and writes the archive
    with np.load(cache_file_path(scale, 20250622), allow_pickle=False) as archive:
        keys = [key for key in archive.files if key.endswith("::dictionary")]
        assert len(keys) == 29
        for key in keys:
            entries = archive[key]
            fast, formula = StringDictionary(entries), StringDictionary(entries.tolist())
            assert fast.values.tolist() == formula.values.tolist(), key
            assert fast.utf8_len.dtype == formula.utf8_len.dtype == np.int64
            assert np.array_equal(fast.utf8_len, formula.utf8_len), key
            assert fast.fixed_len == formula.fixed_len, key
    clear_dataset_cache()


@pytest.mark.parametrize(
    "values, lengths",
    [
        (np.array(["café", "naïve", "x"]), [5, 6, 1]),
        (np.array(["ok", "\U0001F600"]), [2, 4]),
        (["a", None], [1, 4]),
        (np.array(["a", None], dtype=object), [1, 4]),
    ],
    ids=["non-ascii", "astral", "none", "none-object-array"],
)
def test_dictionaries_off_the_fast_path_encode_each_entry(values, lengths):
    """Non-ASCII text and ``None`` (accounted as ``str(None)``) take the
    per-entry formula."""
    dictionary = StringDictionary(values)
    assert dictionary.utf8_len.tolist() == lengths
    assert all(type(v) is str or v is None for v in dictionary.values.tolist())


def test_cache_path_disabled_without_env(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert cache_file_path(SCALE, SEED) is None


def test_cache_filename_carries_generator_version(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    path = cache_file_path(SCALE, SEED)
    assert f"-v{GENERATOR_VERSION}.npz" in path.name
    assert f"-f{CACHE_FORMAT}-" in path.name
    assert f"seed{SEED}" in path.name


def test_torn_archive_falls_back_to_generation(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    path = cache_file_path(SCALE, SEED)
    path.write_bytes(b"not an npz archive")
    tables = load_tpch_tables(SCALE, SEED)
    assert "lineitem" in tables  # regenerated despite the corrupt file


# ---------------------------------------------------------------------------
# An archive load validates every member, then reads each column on its
# first scan.
# ---------------------------------------------------------------------------
@pytest.fixture()
def archive_catalog(monkeypatch, tmp_path) -> Catalog:
    """A catalog served from a freshly written archive."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    load_tpch_tables(SCALE, SEED)
    clear_dataset_cache()
    return Catalog.tpch(SCALE, SEED)


@pytest.fixture()
def archive_reads(monkeypatch) -> list[str]:
    """Every archive member read from here on, in order: decoded through
    numpy, or copied straight from the file by a column's first read."""
    reads, decode, copy = [], NpzFile.__getitem__, dataset_cache._read

    def decoding(archive, key):
        reads.append(key)
        return decode(archive, key)

    def copying(archive, key, spec):
        reads.append(key)
        return copy(archive, key, spec)

    monkeypatch.setattr(NpzFile, "__getitem__", decoding)
    monkeypatch.setattr(dataset_cache, "_read", copying)
    return reads


def test_archive_columns_load_on_their_first_scan(archive_catalog, archive_reads):
    """Planning, split partitioning and sizing read no column; Q6 reads
    the four lineitem columns it scans, once, and nothing else."""
    engine = AccordionEngine(archive_catalog)
    for sql in QUERIES.values():
        engine.coordinator.plan_sql(sql, QueryOptions())
    assert SplitLayout(archive_catalog, storage_nodes=4).setup_report()
    assert all(archive_catalog.table(name).size_bytes for name in archive_catalog.names())
    assert archive_reads == []
    engine.execute(QUERIES["Q6"])
    engine.execute(QUERIES["Q6"])
    assert sorted(archive_reads) == [
        f"lineitem::{name}"
        for name in ("l_discount", "l_extendedprice", "l_quantity", "l_shipdate")
    ]


def test_a_first_read_is_an_owned_copy_of_the_member(archive_catalog):
    """A column's first read copies the member's bytes straight into an
    owned, aligned array: numpy's own decode of the member, bit for bit."""
    lineitem = archive_catalog.table("lineitem")
    with np.load(cache_file_path(SCALE, SEED), allow_pickle=False) as archive:
        for field in lineitem.schema:
            column = lineitem.column(field.name)
            data = column.codes if isinstance(column, DictColumn) else column
            assert data.flags.owndata and data.flags.aligned and data.flags.c_contiguous
            expected = archive[f"lineitem::{field.name}"]
            assert data.dtype == expected.dtype and np.array_equal(data, expected)


def test_archive_catalog_answers_and_times_like_a_generated_one(archive_catalog):
    """Every TPC-H text and every SQL shape: the same rows and the same
    virtual elapsed time whether the columns were generated or loaded."""
    generated = Catalog.tpch(SCALE, SEED, dataset_cache=False)
    for name, sql in sorted({**QUERIES, **SQL_SHAPES}.items()):
        runs = []
        for catalog in (generated, archive_catalog):
            handle = AccordionEngine(catalog).submit(sql)
            runs.append(repr((handle.result(1e5).rows, handle.elapsed)))  # NaN-proof
        assert runs[0] == runs[1], name


def test_a_flipped_data_byte_is_a_miss_at_load(monkeypatch, tmp_path):
    """The load pass reads every member in full, so the zip CRC catches
    a corrupt column at load (the archive is regenerated), not when a
    query first scans it."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    clear_dataset_cache()
    generated = load_tpch_tables(SCALE, SEED)
    path = cache_file_path(SCALE, SEED)
    with zipfile.ZipFile(path) as archive:
        member = archive.getinfo("lineitem::l_tax.npy")
    data = bytearray(path.read_bytes())
    header = member.header_offset
    name_len, extra_len = struct.unpack("<HH", data[header + 26 : header + 30])
    data[header + 30 + name_len + extra_len + member.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(data))
    clear_dataset_cache()
    reloaded = load_tpch_tables(SCALE, SEED)
    with zipfile.ZipFile(path) as archive:
        assert archive.testzip() is None  # regenerated and rewritten
    assert_tables_equal(generated, reloaded)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_reloading_leaves_open_files_flat(monkeypatch, tmp_path):
    """The tables hold their archive open; dropping them closes it, with
    no garbage collection needed."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))

    def reload():
        clear_dataset_cache()
        load_tpch_tables(SCALE, SEED)["lineitem"].column("l_tax")

    reload()  # generates and writes the archive
    reload()  # holds it open
    gc.collect()  # what earlier tests left in reference cycles
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(20):
        reload()
    assert len(os.listdir("/proc/self/fd")) == before
