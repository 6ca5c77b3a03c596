"""Dataset cache for generated TPC-H tables: memo, npz roundtrip, keys."""

from __future__ import annotations

import numpy as np

from repro.data.tpch.dataset_cache import (
    CACHE_DIR_ENV,
    CACHE_FORMAT,
    cache_file_path,
    clear_dataset_cache,
    load_tpch_tables,
)
from repro.data.tpch.generator import GENERATOR_VERSION
from repro.pages import DictColumn

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
