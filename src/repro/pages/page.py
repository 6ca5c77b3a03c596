"""Columnar pages — the unit of data flow between operators and tasks.

A page holds a batch of rows as parallel columns: numpy arrays for the
fixed-width types, :class:`~repro.pages.DictColumn` for STRING; a column
holding a NULL wraps either in a :class:`~repro.pages.MaskedColumn`.  Besides
ordinary data pages the engine uses *end pages* (paper Section 4.3):

* ``PageKind.END`` — "no more data will follow"; relayed operator-to-
  operator to close drivers gracefully (the "end page relay game").
* An end page carries an optional ``signal`` tag so components can tell a
  normal bottom-up completion apart from an elastic shutdown requested at
  runtime (a DOP decrease); both are handled identically by operators.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

from .dictcolumn import DictColumn
from .masked import MaskedColumn, concat_columns, with_nulls
from .schema import ColumnType, Schema

#: Fixed per-page metadata overhead in bytes.
PAGE_OVERHEAD_BYTES = 64
#: Accounted per-cell length-prefix bytes for string columns (int32).
_STRING_LENGTH_BYTES = 4
#: Schema of every end page that does not name one (schemas are immutable).
_NO_COLUMNS = Schema(())


class PageKind(enum.Enum):
    DATA = "data"
    END = "end"


class Page:
    """An immutable batch of rows in columnar layout."""

    __slots__ = ("schema", "columns", "kind", "is_end", "signal", "_size", "num_rows")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[np.ndarray],
        kind: PageKind = PageKind.DATA,
        signal: str | None = None,
    ):
        if kind is PageKind.DATA and len(columns) != len(schema):
            raise ValueError(
                f"page has {len(columns)} columns but schema has {len(schema)}"
            )
        self.schema = schema
        columns = tuple(columns)
        if kind is PageKind.DATA:
            # Invariant: STRING columns are dictionary-encoded.  Operators
            # hand over DictColumns; python values are ingested here.
            for i in schema.string_positions:
                if type(columns[i]) is not DictColumn and type(columns[i]) is not MaskedColumn:
                    encoded = ColumnType.STRING.coerce(columns[i])
                    columns = columns[:i] + (encoded,) + columns[i + 1 :]
        self.columns = columns
        self.kind = kind
        self.signal = signal
        self._size: int | None = None
        # Plain attributes, not properties: drivers, buffers, cost
        # accounting and the NIC model read these several times per page,
        # so the lookup must not pay a function call.
        self.is_end = kind is PageKind.END
        self.num_rows = (
            0 if self.is_end or not self.columns else len(self.columns[0])
        )

    # -- constructors ---------------------------------------------------
    @classmethod
    def end(cls, schema: Schema | None = None, signal: str | None = None) -> "Page":
        """An end page (optionally tagged with the elastic shutdown signal)."""
        return cls(schema or _NO_COLUMNS, (), kind=PageKind.END, signal=signal)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Page":
        """Build a page from an iterable of row tuples (test convenience)."""
        rows = list(rows)
        cols = []
        for i, field in enumerate(schema):
            cols.append(field.type.coerce([r[i] for r in rows]))
        return cls(schema, cols)

    @classmethod
    def from_dict(cls, schema: Schema, data: dict[str, Iterable]) -> "Page":
        cols = [f.type.coerce(data[f.name]) for f in schema]
        return cls(schema, cols)

    # -- basic accessors ------------------------------------------------
    def column(self, ref: int | str) -> np.ndarray:
        if isinstance(ref, str):
            ref = self.schema.index_of(ref)
        return self.columns[ref]

    @property
    def size_bytes(self) -> int:
        """Accounted size of the page (used by buffers, budgets, the NIC).

        The cost model's row-wise layout, independent of how compactly
        the dictionary encoding holds the strings: fixed-width columns
        cost ``rows * width``; string columns cost an ``int32`` length
        prefix per cell plus the UTF-8 bytes of each cell's text — one
        gather over the dictionary's per-entry byte lengths.  A NULL cell
        is accounted like any other of its column, but a NULL string has
        no UTF-8 bytes; the validity mask is not accounted.
        """
        if self._size is None:
            n = self.num_rows
            total = PAGE_OVERHEAD_BYTES + n * self.schema.fixed_row_bytes
            for i in self.schema.string_positions:
                total += n * _STRING_LENGTH_BYTES + self.columns[i].payload_bytes()
            self._size = total
        return self._size

    # -- buffer protocol (zero-copy serialization, DESIGN.md §13) ---------
    def column_buffers(self) -> list:
        """Flat list of buffer views covering every column, copy-free
        where the memory layout allows it.

        Fixed-width columns contribute one ``memoryview`` over the numpy
        array's own buffer (no bytes are copied until a consumer writes
        them somewhere).  String columns contribute three
        (:meth:`DictColumn.to_buffers`): the ``int32`` codes, and the
        dictionary as entry lengths + concatenated UTF-8 payload — cached
        on the dictionary, so a page costs no per-cell work.  A page with
        a NULL appends one validity buffer per column (empty where the
        column has no mask).  Spill files consume this layout;
        :meth:`from_column_buffers` is the inverse.
        """
        buffers: list = []
        masks = [b""] * len(self.columns)
        for i, col in enumerate(self.columns):
            if type(col) is MaskedColumn:
                masks[i], col = memoryview(np.ascontiguousarray(col.valid)).cast("B"), col.values
            if isinstance(col, DictColumn):
                buffers.extend(col.to_buffers())
            else:
                arr = np.ascontiguousarray(col)
                buffers.append(memoryview(arr).cast("B"))
        return buffers + masks if any(masks) else buffers

    @classmethod
    def from_column_buffers(
        cls, schema: Schema, num_rows: int, buffers: Sequence
    ) -> "Page":
        """Rebuild a page from :meth:`column_buffers` output.

        Fixed-width columns and string codes come back as
        ``np.frombuffer`` views over the provided buffers (zero-copy; the
        arrays are read-only, which every operator honours —
        transformations allocate fresh arrays).
        """
        columns: list = []
        cursor = 0
        for fld in schema:
            if fld.type.fixed_width is None:
                columns.append(DictColumn.from_buffers(*buffers[cursor : cursor + 3]))
                cursor += 3
            else:
                columns.append(
                    np.frombuffer(buffers[cursor], dtype=fld.type.numpy_dtype)
                )
                cursor += 1
        if cursor < len(buffers):
            columns = [
                with_nulls(col, np.frombuffer(mask, dtype=bool)) if len(mask) else col
                for col, mask in zip(columns, buffers[cursor:])
            ]
        return cls(schema, columns)

    # -- row-level views (tests / result collection) ---------------------
    def rows(self) -> list[tuple]:
        """Materialise the page as a list of python row tuples."""
        if self.is_end or not self.columns:
            return []
        cols = [c.tolist() for c in self.columns]
        return list(zip(*cols))

    # -- transformations -------------------------------------------------
    def select(self, indexes: Sequence[int]) -> "Page":
        """Positional column projection."""
        return Page(self.schema.select(indexes), [self.columns[i] for i in indexes])

    def mask(self, keep: np.ndarray) -> "Page":
        """Row filter by boolean mask."""
        return Page(self.schema, [c[keep] for c in self.columns])

    def take(self, indices: np.ndarray) -> "Page":
        """Row gather by integer indices."""
        return Page(self.schema, [c[indices] for c in self.columns])

    def slice(self, start: int, stop: int) -> "Page":
        return Page(self.schema, [c[start:stop] for c in self.columns])

    def split(self, row_limit: int) -> list["Page"]:
        """These rows as pages of at most ``row_limit`` rows, the paper's
        page (sub-chunk) granularity of data flow; none when empty."""
        if row_limit <= 0:
            raise ValueError("row_limit must be positive")
        if self.num_rows <= row_limit:
            return [self] if self.num_rows else []
        return [
            self.slice(start, start + row_limit)
            for start in range(0, self.num_rows, row_limit)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_end:
            tag = f" signal={self.signal}" if self.signal else ""
            return f"Page(END{tag})"
        return f"Page({self.num_rows} rows x {len(self.columns)} cols)"


def concat_pages(schema: Schema, pages: Sequence[Page]) -> Page:
    """Concatenate data pages into one page (used by sorts and caches)."""
    data_pages = [p for p in pages if not p.is_end and p.num_rows > 0]
    if not data_pages:
        return Page(schema, [f.type.coerce([]) for f in schema])
    cols = []
    for i in range(len(schema)):
        cols.append(concat_columns([p.columns[i] for p in data_pages]))
    return Page(schema, cols)
