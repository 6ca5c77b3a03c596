"""In-memory tables: named columnar data registered in a catalog."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pages import DictColumn, Page, Schema


@dataclass
class Table:
    """A fully materialised table (schema + parallel columns; STRING
    columns are dictionary-encoded on registration)."""

    name: str
    schema: Schema
    columns: "list[np.ndarray | DictColumn]"

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
        self._size_cache: int | None = None

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def size_bytes(self) -> int:
        """Accounted table size, used for split accounting.

        Cached: sizing gathers one byte length per string cell over the
        whole table (see :meth:`Page.size_bytes`) — ~12 ms for SF0.2
        ``lineitem``, paid by every split-partitioning pass otherwise.
        Tables are immutable once registered, so one measurement holds.
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
