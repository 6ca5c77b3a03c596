"""In-memory tables: named columnar data registered in a catalog."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..pages import DictColumn, Page, Schema


class _LazyColumns(Sequence):
    """A table's columns, each a loader until its first read, which calls
    the loader and keeps the column in its place."""

    def __init__(self, loaders: "list[Callable[[], np.ndarray | DictColumn]]"):
        self._columns = list(loaders)

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, i: int):
        column = self._columns[i]
        if callable(column):
            column = self._columns[i] = column()
        return column


@dataclass
class Table:
    """A table: schema + parallel columns (STRING columns are
    dictionary-encoded on registration), materialised or loaded per
    column on first read (:meth:`lazy`)."""

    name: str
    schema: Schema
    columns: "Sequence[np.ndarray | DictColumn]"

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.schema):
            raise ValueError(
                f"table {self.name}: {len(self.columns)} columns for "
                f"{len(self.schema)}-field schema"
            )
        self.columns = list(self.columns)
        for i in self.schema.string_positions:
            if not isinstance(self.columns[i], DictColumn):
                self.columns[i] = DictColumn.from_values(self.columns[i])
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"table {self.name}: ragged columns {lengths}")
        self.num_rows = len(self.columns[0]) if self.columns else 0
        self._size_cache: int | None = None

    @classmethod
    def lazy(
        cls, name: str, schema: Schema, loaders: list, num_rows: int, size_bytes: int
    ) -> "Table":
        """A table whose column ``i`` is ``loaders[i]()``, called on the
        column's first read (a scan, :meth:`page`, :meth:`column`).  The
        caller measured ``num_rows`` and ``size_bytes``, so planning and
        split partitioning read no column."""
        table = object.__new__(cls)
        table.name, table.schema, table.columns = name, schema, _LazyColumns(loaders)
        table.num_rows, table._size_cache = num_rows, size_bytes
        return table

    @property
    def size_bytes(self) -> int:
        """Accounted table size (:meth:`Page.size_bytes` of the whole
        table), used for split accounting.

        Measured once: it gathers one byte length per string cell, and
        tables are immutable once registered.  A :meth:`lazy` table is
        measured by whoever loads it, so sizing it reads no column.
        """
        if self._size_cache is None:
            self._size_cache = self.page(0, self.num_rows).size_bytes
        return self._size_cache

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.schema.index_of(name)]

    def page(self, start: int, stop: int) -> Page:
        """A page view over rows [start, stop)."""
        stop = min(stop, self.num_rows)
        return Page(self.schema, [c[start:stop] for c in self.columns])

    def to_page(self) -> Page:
        return self.page(0, self.num_rows)

    def head(self, n: int = 5) -> list[tuple]:
        return self.page(0, min(n, self.num_rows)).rows()
