"""In-memory tables: named columnar data registered in a catalog."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from ..errors import ExecutionError
from ..pages import ColumnType, DictColumn, MaskedColumn, Page, Schema

#: Integer widths a column is stored at when every value fits exactly.
_WIDTHS = tuple(map(np.dtype, (np.int8, np.int16, np.int32)))
_INT32 = np.dtype(np.int32)
#: Rows per step when a column is measured for its width, so a float
#: column's round-trip check holds no full-width temporary.
_STEP_ROWS = 1 << 15


def narrowest(values: np.ndarray, floor: np.dtype | None = None) -> np.dtype:
    """The narrowest of ``int8`` / ``int16`` / ``int32``, and no narrower
    than ``floor`` (what earlier chunks of the column need), that holds
    every value exactly: widened back, each has the same bits.  A float
    qualifies when every value is an integer and none is ``-0.0`` or NaN.
    Otherwise ``values.dtype``."""
    dtype = values.dtype
    if floor is not None and floor == dtype:
        return dtype
    if dtype.kind not in "if" or not values.size:
        return dtype if floor is None else floor
    lo, hi = values.min(), values.max()
    for width in _WIDTHS:
        if width.itemsize >= dtype.itemsize:
            break
        if floor is not None and width.itemsize < floor.itemsize:
            continue
        if np.iinfo(width).min <= lo and hi <= np.iinfo(width).max:
            if dtype.kind == "i":
                return width
            bits = f"u{dtype.itemsize}"
            back = values.astype(width).astype(dtype)
            return width if np.array_equal(back.view(bits), values.view(bits)) else dtype
    return dtype


def code_width(entries: int) -> np.dtype:
    """Width of the codes of a dictionary of ``entries`` entries."""
    return np.dtype(np.uint8 if entries <= 256 else np.uint16 if entries <= 65536 else np.int32)


def stored_strings(codes: np.ndarray, dictionary) -> DictColumn:
    """A string column as a table stores it, its codes at
    :func:`code_width` (:meth:`Table.read` widens them for a page)."""
    col = DictColumn.__new__(DictColumn)
    col.codes = codes.astype(code_width(len(dictionary)), copy=False)
    col.dictionary = dictionary
    return col


def _stored(col):
    """``col`` at its stored width; a column with a NULL is kept as given."""
    if type(col) is DictColumn:
        return stored_strings(col.codes, col.dictionary)
    if type(col) is not np.ndarray:
        return col
    width = None
    for start in range(0, len(col), _STEP_ROWS):
        width = narrowest(col[start : start + _STEP_ROWS], width)
    return col if width is None else col.astype(width, copy=False)


def _page_dtypes(schema: Schema) -> list:
    return [_INT32 if f.type is ColumnType.STRING else f.type.numpy_dtype for f in schema]


class _Columns(Sequence):
    """A table's columns at their page dtypes (:attr:`Table.columns`)."""

    __slots__ = ("_table",)

    def __init__(self, table: "Table"):
        self._table = table

    def __len__(self) -> int:
        return len(self._table.schema)

    def __getitem__(self, i: int):
        return self._table.read(i, 0, self._table.num_rows)


class Table:
    """A table: schema + parallel columns, materialised or loaded per
    column on first read (:meth:`lazy`).

    A column is stored at the narrowest exact width (:func:`narrowest`:
    integers, dates and integer-valued floats; :func:`code_width`: the
    codes of a STRING column, which is dictionary-encoded on
    registration) and widened to its page dtype by :meth:`read`; a
    column holding a NULL is stored as given.  :attr:`columns` reads
    whole columns at their page dtypes.  A field whose column holds a
    NULL is nullable.
    """

    def __init__(self, name: str, schema: Schema, columns: Sequence):
        if len(columns) != len(schema):
            raise ValueError(
                f"table {name}: {len(columns)} columns for {len(schema)}-field schema"
            )
        columns = [field.type.coerce(col) for field, col in zip(schema, columns)]
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"table {name}: ragged columns {lengths}")
        if nulls := [i for i, c in enumerate(columns) if type(c) is MaskedColumn]:
            schema = Schema(
                replace(f, nullable=True) if i in nulls else f for i, f in enumerate(schema)
            )
        self.name, self.schema, self._dtypes = name, schema, _page_dtypes(schema)
        self.num_rows = len(columns[0]) if columns else 0
        self._stored = [_stored(col) for col in columns]
        self._size_cache: int | None = None

    @classmethod
    def lazy(
        cls, name: str, schema: Schema, loaders: list, num_rows: int, size_bytes: int
    ) -> "Table":
        """A table whose column ``i`` is ``loaders[i]()``, at its stored
        width, called on the column's first read (a scan, :meth:`page`,
        :meth:`column`).  The caller measured ``num_rows`` and
        ``size_bytes``, so planning and split partitioning read no column.
        A loader that returns a NULL under a non-nullable field fails the
        read with :class:`ExecutionError`: plans bound the field as
        NULL-free."""
        table = object.__new__(cls)
        table.name, table.schema, table._dtypes = name, schema, _page_dtypes(schema)
        table._stored, table._loaders = [None] * len(loaders), loaders
        table.num_rows, table._size_cache = num_rows, size_bytes
        return table

    @property
    def columns(self) -> Sequence:
        return _Columns(self)

    @property
    def size_bytes(self) -> int:
        """Accounted table size (:meth:`Page.size_bytes` of the whole
        table), used for split accounting.

        Measured once: it gathers one byte length per string cell, and
        tables are immutable once registered.  A :meth:`lazy` table is
        measured by whoever loads it, so sizing it reads no column.
        """
        if self._size_cache is None:
            self._size_cache = Page(self.schema, self._stored).size_bytes
        return self._size_cache

    def read(self, i: int, start: int, stop: int):
        """Rows [start, stop) of column ``i`` at its page dtype (one
        ``astype``; a view where the column is stored at that width)."""
        col = self._stored[i]
        if col is None:
            col = self._loaders[i]()
            if type(col) is MaskedColumn and not self.schema.fields[i].nullable:
                raise ExecutionError(
                    f"table {self.name}: column {self.schema.fields[i].name} "
                    "holds a NULL under a non-nullable field"
                )
            self._stored[i] = col
        part = col[start:stop]
        if type(part) is DictColumn:
            if part.codes.dtype != _INT32:
                part.codes = part.codes.astype(_INT32)  # a new column of the slice
        elif type(part) is np.ndarray and part.dtype != self._dtypes[i]:
            part = part.astype(self._dtypes[i])
        return part

    def column(self, name: str) -> "np.ndarray | DictColumn | MaskedColumn":
        return self.columns[self.schema.index_of(name)]

    def page(self, start: int, stop: int) -> Page:
        """A page over rows [start, stop)."""
        stop = min(stop, self.num_rows)
        return Page(self.schema, [self.read(i, start, stop) for i in range(len(self.schema))])

    def to_page(self) -> Page:
        return self.page(0, self.num_rows)
