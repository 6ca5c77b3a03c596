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

from ...pages import DictColumn
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
    try:
        with np.load(path, allow_pickle=False) as archive:
            tables: dict[str, Table] = {}
            for name, schema in TPCH_SCHEMAS.items():
                columns = []
                for field in schema:
                    key = f"{name}::{field.name}"
                    arr = archive[key]
                    if field.type.fixed_width is None:
                        arr = DictColumn(arr, archive[f"{key}::dictionary"].tolist())
                        if len(arr) and not (
                            0 <= arr.codes.min() and arr.codes.max() < len(arr.dictionary)
                        ):
                            raise ValueError(f"{key}: codes outside the dictionary")
                    columns.append(arr)
                tables[name] = Table(name, schema, columns)
            return tables
    except Exception:
        # Any load failure is a cache miss (missing or torn archive,
        # members that are not the arrays this format stores, codes that
        # do not index their dictionary): regenerate instead of failing
        # the caller now or an operator later.
        return None


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
