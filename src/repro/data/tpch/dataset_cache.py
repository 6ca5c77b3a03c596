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
  The load pass streams every column member through the zip CRC,
  measuring the narrowest width that holds its values exactly, and
  decodes only string codes and dictionary entries, to check them;
  it builds no dictionary.  A first read copies the member's bytes
  from the file a chunk at a time, narrowing them to that width, and
  a string column's first read builds its dictionary (DESIGN.md §10).

``GENERATOR_VERSION`` is part of both keys: bump it whenever
:class:`~repro.data.tpch.generator.TpchGenerator` changes its output, and
stale caches miss instead of serving old bits.  ``CACHE_FORMAT`` versions
the archive layout the same way: every column is stored at its page
dtype, a string column as its ``int32`` codes plus a fixed-width
unicode array of dictionary entries, so the archive holds plain arrays
only and loads with ``allow_pickle=False`` (format 1 pickled one python
object per cell).
Cache consumers must not mutate the returned arrays (the engine never
does — pages slice and copy).
"""

from __future__ import annotations

import os
import struct
import zipfile
from pathlib import Path

import numpy as np

from ...pages import DictColumn
from ...pages.dictcolumn import StringDictionary, utf8_lengths
from ...pages.page import _STRING_LENGTH_BYTES, PAGE_OVERHEAD_BYTES
from .schema import TPCH_SCHEMAS
from ..table import Table, code_width, narrowest, stored_strings

__all__ = ["load_tpch_tables", "clear_dataset_cache", "cache_file_path"]

#: (scale, seed, generator version) -> {table name: Table}
_MEMO: dict[tuple, dict[str, Table]] = {}

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Version of the archive layout; part of the file name, so archives in
#: another layout are never opened.
CACHE_FORMAT = 2
#: Version of :class:`~repro.data.tpch.generator.TpchGenerator`'s output,
#: kept here so that loading an archive never imports the generator.
GENERATOR_VERSION = 1
#: Bytes per read when streaming a member through the zip CRC.
_CHUNK_BYTES = 1 << 18
#: ``.npy`` format version -> its header reader.
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


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
    holding one at a time: each must be a 1-D array (never an object
    array) of its table's row count, a dictionary's entries must be
    distinct unicode strings, and string codes must index their
    dictionary.  Only string codes and dictionaries are decoded, to check
    them and to measure the cells' UTF-8 bytes; no dictionary is built.
    A fixed-width member is streamed (:func:`_member`), which measures
    its stored width.  The pass measures each table's rows and accounted
    size; the columns stay in the archive until their first read
    (:func:`_read`).
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except Exception:
        return None
    try:
        tables: dict[str, Table] = {}
        for name, schema in TPCH_SCHEMAS.items():
            rows, size, loaders = None, PAGE_OVERHEAD_BYTES, []
            for field in schema:
                key = f"{name}::{field.name}"
                strings = field.type.fixed_width is None
                spec, codes = _member(archive, key, decode=strings)
                length = spec[1]
                rows = length if rows is None else rows
                if length != rows:
                    raise ValueError(f"{key}: not a column of {rows} rows")
                entries = None
                if strings:
                    entries, values = _member(archive, f"{key}::dictionary", decode=True)
                    if values.dtype.kind != "U" or len(set(values.tolist())) != len(values):
                        raise ValueError(f"{key}: not a dictionary of distinct strings")
                    if rows and not (0 <= codes.min() and codes.max() < len(values)):
                        raise ValueError(f"{key}: codes outside the dictionary")
                    spec = spec[:3] + (code_width(len(values)),)
                    size += rows * _STRING_LENGTH_BYTES + int(utf8_lengths(values)[codes].sum())
                else:
                    size += rows * field.type.fixed_width
                loaders.append(_loader(archive, key, spec, entries))
            tables[name] = Table.lazy(name, schema, loaders, rows, size)
        return tables
    except Exception:
        # Any load failure is a cache miss (a torn or corrupt archive,
        # members that are not the arrays this format stores, codes that
        # do not index their dictionary): regenerate instead of failing
        # the caller now or an operator later.
        archive.close()
        return None


def _member(archive, key: str, decode: bool) -> tuple[tuple, np.ndarray | None]:
    """``(dtype, rows, data offset in the file, stored width)`` of the
    stored 1-D member ``key``, from its ``.npy`` header, and its data as
    an array if ``decode``.  The data bytes are streamed to the end of
    the member, which checks the zip CRC, and counted; only ``decode``
    keeps them, and otherwise each chunk narrows the stored width
    (:func:`~repro.data.table.narrowest`)."""
    info = archive.zip.getinfo(f"{key}.npy")
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{key}: a compressed member")
    with archive.zip.open(info) as member:
        version = np.lib.format.read_magic(member)
        shape, _, dtype = _HEADER_READERS[version](member)
        if dtype.hasobject or len(shape) != 1:
            raise ValueError(f"{key}: not a 1-D array of plain values")
        data = np.empty(shape[0], dtype) if decode else None
        into = memoryview(data).cast("B") if decode else None
        header, filled, width = member.tell(), 0, None
        while chunk := member.read(_CHUNK_BYTES):
            if into is not None:
                into[filled : filled + len(chunk)] = chunk
            else:
                width = narrowest(np.frombuffer(chunk, dtype), width)
            filled += len(chunk)
    if filled != shape[0] * dtype.itemsize:
        raise ValueError(f"{key}: data does not match its header")
    # The member's data follows its local file header, whose name and
    # extra field lengths sit at bytes 26-29 (``open`` validated it).
    archive.zip.fp.seek(info.header_offset)
    name_len, extra_len = struct.unpack("<26xHH", archive.zip.fp.read(30))
    offset = info.header_offset + 30 + name_len + extra_len + header
    return (dtype, shape[0], offset, dtype if width is None else width), data


def _read(archive, key: str, spec: tuple) -> np.ndarray:
    """Member ``key`` (``spec`` as :func:`_member` found it) as an owned,
    aligned array at its stored width, its bytes copied straight from
    the archive file a chunk at a time, so no full-width temporary is
    held: the load pass checked their CRC, and an archive is only ever
    replaced whole, never written in place."""
    dtype, rows, offset, stored = spec
    column = np.empty(rows, stored)
    chunk = np.empty(max(1, _CHUNK_BYTES // dtype.itemsize), dtype)
    archive.zip.fp.seek(offset)
    for start in range(0, rows, len(chunk)):
        part = chunk[: rows - start]
        if archive.zip.fp.readinto(part) != part.nbytes:
            raise ValueError(f"{key}: the archive is shorter than at load")
        column[start : start + len(part)] = part
    return column


def _loader(archive, key: str, spec: tuple, entries: tuple | None):
    """Reads member ``key``; string codes (``entries`` is their
    dictionary member's spec) come with their dictionary, built here."""
    if entries is None:
        return lambda: _read(archive, key, spec)
    return lambda: stored_strings(
        _read(archive, key, spec),
        StringDictionary(_read(archive, f"{key}::dictionary", entries)),
    )


def load_tpch_tables(
    scale: float, seed: int, cache: bool = True
) -> dict[str, Table]:
    """All eight TPC-H tables at ``(scale, seed)``, cached when allowed."""
    if not cache:
        return _generate(scale, seed)
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
    tables = _generate(scale, seed)
    _MEMO[key] = tables
    if path is not None:
        _save(path, tables)
    return tables


def _generate(scale: float, seed: int) -> dict[str, Table]:
    from .generator import TpchGenerator

    return TpchGenerator(scale, seed).tables()
