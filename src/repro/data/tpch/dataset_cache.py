"""Dataset cache for generated TPC-H tables (memo + on-disk ``.npz``).

The benchmarks and every test session used to pay dbgen on each run —
at SF 0.05 that is ~0.4 s of pure generation before a single query
executes.  Generated data is fully determined by
``(scale, seed, GENERATOR_VERSION)``, so it is cached at two levels:

* **In-process memo** — repeated ``Catalog.tpch(scale, seed)`` calls in
  one process (benchmark repetitions, test fixtures with equal
  parameters) share the same immutable column arrays.
* **On-disk ``.npz``** — when the ``REPRO_CACHE_DIR`` environment
  variable names a directory, tables are spilled to
  ``tpch-sf<scale>-seed<seed>-f<format>-v<version>.npz`` and later
  processes load instead of generating.  Unset, nothing touches disk.
  Loading validates every member but keeps none of the columns: each
  is read from the archive, which the tables hold open, on its first
  read (``Table.lazy``), so a column no query scans costs no memory.

``GENERATOR_VERSION`` is part of both keys: bump it whenever
:class:`~repro.data.tpch.generator.TpchGenerator` changes its output, and
stale caches miss instead of serving old bits.  ``CACHE_FORMAT`` versions
the archive layout the same way: a string column is stored as its
``int32`` codes plus a fixed-width unicode array of dictionary entries,
so the archive holds plain arrays only and loads with
``allow_pickle=False`` (format 1 pickled one python object per cell).
Cache consumers must not mutate the returned arrays (the engine never
does — pages slice and copy).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ...pages import DictColumn, Page
from ...pages.page import PAGE_OVERHEAD_BYTES
from .generator import GENERATOR_VERSION, TpchGenerator
from .schema import TPCH_SCHEMAS
from ..table import Table

__all__ = ["load_tpch_tables", "clear_dataset_cache", "cache_file_path"]

#: (scale, seed, generator version) -> {table name: Table}
_MEMO: dict[tuple, dict[str, Table]] = {}

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Version of the archive layout; part of the file name, so archives in
#: another layout are never opened.
CACHE_FORMAT = 2


def clear_dataset_cache() -> None:
    """Drop the in-process memo (on-disk files are left alone)."""
    _MEMO.clear()


def cache_file_path(scale: float, seed: int) -> Path | None:
    """On-disk cache file for these parameters, or None when disabled."""
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    if not cache_dir:
        return None
    return Path(cache_dir) / (
        f"tpch-sf{scale!r}-seed{seed}-f{CACHE_FORMAT}-v{GENERATOR_VERSION}.npz"
    )


def _save(path: Path, tables: dict[str, Table]) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, table in tables.items():
        for field, column in zip(table.schema, table.columns):
            key = f"{name}::{field.name}"
            if isinstance(column, DictColumn):
                arrays[key] = column.codes
                arrays[f"{key}::dictionary"] = column.dictionary.values.astype(str)
            else:
                arrays[key] = column
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename so a crashed writer never leaves a torn file for
    # a concurrent reader (np.load would fail on a partial archive).
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)


def _load(path: Path) -> dict[str, Table] | None:
    """The archive's tables, or None when it cannot serve them.

    One pass reads every member in full (so the zip CRC is checked),
    holding one at a time: each must be a 1-D array (``allow_pickle=False``
    refuses object arrays) of its table's row count, and string codes
    must index their dictionary.  The pass builds the dictionaries and
    measures each table's rows and accounted size; the columns stay in
    the archive until their first read.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except Exception:
        return None
    try:
        tables: dict[str, Table] = {}
        for name, schema in TPCH_SCHEMAS.items():
            rows, size, loaders = None, PAGE_OVERHEAD_BYTES, []
            for i, field in enumerate(schema):
                key = f"{name}::{field.name}"
                column = archive[key]
                rows = len(column) if rows is None else rows
                if column.ndim != 1 or len(column) != rows:
                    raise ValueError(f"{key}: not a column of {rows} rows")
                dictionary = None
                if field.type.fixed_width is None:
                    column = DictColumn(column, archive[f"{key}::dictionary"].tolist())
                    dictionary, codes = column.dictionary, column.codes
                    if rows and not (0 <= codes.min() and codes.max() < len(dictionary)):
                        raise ValueError(f"{key}: codes outside the dictionary")
                size += Page(schema.select((i,)), [column]).size_bytes - PAGE_OVERHEAD_BYTES
                loaders.append(_loader(archive, key, dictionary))
            tables[name] = Table.lazy(name, schema, loaders, rows, size)
        return tables
    except Exception:
        # Any load failure is a cache miss (a torn or corrupt archive,
        # members that are not the arrays this format stores, codes that
        # do not index their dictionary): regenerate instead of failing
        # the caller now or an operator later.
        archive.close()
        return None


def _loader(archive, key: str, dictionary):
    """Reads member ``key`` (string codes over ``dictionary`` if given)."""
    if dictionary is None:
        return lambda: archive[key]
    return lambda: DictColumn(archive[key], dictionary)


def load_tpch_tables(
    scale: float, seed: int, cache: bool = True
) -> dict[str, Table]:
    """All eight TPC-H tables at ``(scale, seed)``, cached when allowed."""
    if not cache:
        return TpchGenerator(scale, seed).tables()
    key = (scale, seed, GENERATOR_VERSION)
    tables = _MEMO.get(key)
    if tables is not None:
        return tables
    path = cache_file_path(scale, seed)
    if path is not None:
        tables = _load(path)
        if tables is not None:
            _MEMO[key] = tables
            return tables
    tables = TpchGenerator(scale, seed).tables()
    _MEMO[key] = tables
    if path is not None:
        _save(path, tables)
    return tables
