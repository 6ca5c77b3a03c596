"""Incremental page construction with a target row limit.

Operators that produce rows incrementally (scans, aggregations, join
probes) accumulate output in a :class:`PageBuilder` and emit full pages
once ``row_limit`` is reached, matching the paper's page (sub-chunk)
granularity of data flow.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dictcolumn import concat_columns
from .page import Page
from .schema import Schema


class PageBuilder:
    """Accumulates rows column-wise and emits pages of bounded size."""

    def __init__(self, schema: Schema, row_limit: int = 4096):
        if row_limit <= 0:
            raise ValueError("row_limit must be positive")
        self.schema = schema
        self.row_limit = row_limit
        self._chunks: list[list[np.ndarray]] = []
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    @property
    def is_empty(self) -> bool:
        return self._rows == 0

    def append_columns(self, columns: Sequence[np.ndarray]) -> None:
        """Append a batch given as parallel column arrays."""
        if len(columns) != len(self.schema):
            raise ValueError("column arity mismatch")
        n = len(columns[0]) if columns else 0
        if n == 0:
            return
        self._chunks.append(list(columns))
        self._rows += n

    def append_page(self, page: Page) -> None:
        if page.is_end or page.num_rows == 0:
            return
        self.append_columns(page.columns)

    def append_rows(self, rows: Sequence[Sequence]) -> None:
        """Append python row tuples (slow path, used by tests/final agg)."""
        if not rows:
            return
        cols = [
            f.type.coerce([r[i] for r in rows]) for i, f in enumerate(self.schema)
        ]
        self.append_columns(cols)

    @property
    def is_full(self) -> bool:
        return self._rows >= self.row_limit

    def _concat(self) -> list[np.ndarray]:
        if len(self._chunks) == 1:
            return self._chunks[0]
        return [
            concat_columns([chunk[i] for chunk in self._chunks])
            for i in range(len(self.schema))
        ]

    def flush(self) -> Page | None:
        """Emit everything buffered as a single page (or ``None`` if empty)."""
        if self._rows == 0:
            return None
        cols = self._concat()
        self._chunks = []
        self._rows = 0
        return Page(self.schema, cols)

    def build_full_pages(self) -> list[Page]:
        """Emit zero or more pages of at most ``row_limit`` rows, keeping
        any remainder buffered for the next call."""
        if self._rows < self.row_limit:
            return []
        cols = self._concat()
        total = self._rows
        pages = []
        offset = 0
        while total - offset >= self.row_limit:
            pages.append(
                Page(self.schema, [c[offset : offset + self.row_limit] for c in cols])
            )
            offset += self.row_limit
        self._chunks = []
        self._rows = 0
        if offset < total:
            self.append_columns([c[offset:] for c in cols])
        return pages
