"""TopN and Sort operators (stateful; run in single-task stages, with a
partial TopN variant pushed into upstream stages)."""

from __future__ import annotations

import numpy as np

from ...config import CostModel
from ...pages import DictColumn, Page, Schema, concat_pages
from ...pages.masked import split_nulls
from .base import TransformOperator


def sort_indices(page: Page, sort_keys: list[tuple[int, bool]]) -> np.ndarray:
    """Stable multi-key sort; supports mixed asc/desc and string keys.
    NULL sorts below every value: first ascending, last descending."""
    order = np.arange(page.num_rows)
    # Apply keys from least to most significant; each pass is stable.
    for index, ascending in reversed(sort_keys):
        for key in _sort_passes(page.columns[index]):
            key = key[order]
            order = order[np.argsort(key if ascending else -key, kind="stable")]
    return order


def _sort_passes(column) -> tuple:
    """Integer keys ordered like ``column``, least significant first: its
    values (a string's ranks); with a NULL, those values with every NULL
    alike (so NULLs keep their order), then the validity."""
    column, valid = split_nulls(column)
    if isinstance(column, DictColumn):
        column = column.rank_codes()[0]  # integers ordered like the text
    return (column,) if valid is None else (np.where(valid, column, 0), valid.astype(np.int8))


class TopNOperator(TransformOperator):
    """Keeps the ``count`` best rows by ``sort_keys``.

    The partial variant runs per driver in the upstream stage and merely
    bounds what flows downstream; the final variant produces the exact
    ordered prefix.
    """

    name = "topn"

    def __init__(
        self,
        cost: CostModel,
        schema: Schema,
        count: int,
        sort_keys: list[tuple[int, bool]],
        partial: bool = False,
        row_limit: int = 4096,
    ):
        super().__init__(cost)
        self.schema = schema
        self.count = count
        self.sort_keys = sort_keys
        self.partial = partial
        self.row_limit = row_limit
        self._pages: list[Page] = []
        self._rows = 0

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            out = self._emit()
            return out + [page], self.cpu(
                sum(p.num_rows for p in out), self.cost.sort_row_cost
            )
        self._pages.append(page)
        self._rows += page.num_rows
        cpu = self.cpu(page.num_rows, self.cost.sort_row_cost)
        if self._rows > max(4 * self.count, self.row_limit):
            self._compact()
        return [], cpu

    def _compact(self) -> None:
        merged = concat_pages(self.schema, self._pages)
        order = sort_indices(merged, self.sort_keys)[: self.count]
        self._pages = [merged.take(order)]
        self._rows = len(order)

    def _emit(self) -> list[Page]:
        if not self._pages:
            return []
        self._compact()
        return [p for p in self._pages if p.num_rows > 0]


class SortOperator(TransformOperator):
    name = "sort"

    def __init__(
        self,
        cost: CostModel,
        schema: Schema,
        sort_keys: list[tuple[int, bool]],
        row_limit: int = 4096,
    ):
        super().__init__(cost)
        self.schema = schema
        self.sort_keys = sort_keys
        self.row_limit = row_limit
        self._pages: list[Page] = []

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            out = self._emit()
            return out + [page], self.cpu(
                sum(p.num_rows for p in out), self.cost.sort_row_cost
            )
        self._pages.append(page)
        return [], self.cpu(page.num_rows, self.cost.sort_row_cost)

    def _emit(self) -> list[Page]:
        if not self._pages:
            return []
        merged = concat_pages(self.schema, self._pages)
        return merged.take(sort_indices(merged, self.sort_keys)).split(self.row_limit)
