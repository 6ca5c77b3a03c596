"""NULL: one optional validity mask per column (DESIGN.md §18).

A column holding a NULL is a :class:`MaskedColumn`: its values (a numpy
array, or a :class:`~repro.pages.DictColumn` for STRING) and ``valid``, a
boolean array that is ``False`` in each NULL row.  A column without a
NULL carries no mask: it is the plain array or ``DictColumn`` itself, so
code that never meets a NULL never pays for one.  The value under a NULL
is whatever the producer left there and is never read as data.

Indexing, slicing and concatenating carry the mask with the values, so
``Page.take`` / ``mask`` / ``slice`` / ``split`` and ``concat_pages`` need
nothing of their own.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dictcolumn import DictColumn, unify

__all__ = ["MaskedColumn", "concat_columns", "map_values", "split_nulls", "valid_rows", "with_nulls"]


class MaskedColumn:
    """Values plus a validity mask; at least one row is NULL (see
    :func:`with_nulls`, which every producer goes through)."""

    __slots__ = ("values", "valid")

    def __init__(self, values, valid: np.ndarray):
        self.values = values
        self.valid = valid

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def __len__(self) -> int:
        return len(self.valid)

    def __getitem__(self, key):
        valid = self.valid[key]
        if valid.ndim == 0:
            return self.values[key] if valid else None
        return with_nulls(self.values[key], valid)

    def tolist(self) -> list:
        return [v if ok else None for v, ok in zip(self.values.tolist(), self.valid.tolist())]

    def payload_bytes(self) -> int:
        """Accounted UTF-8 bytes of a string column's cells: a NULL cell
        has none (its length prefix is accounted like any other's)."""
        values = self.values
        return int(values.dictionary.utf8_len[values.codes[self.valid]].sum())

    def astype(self, dtype, copy: bool = True) -> np.ndarray:
        """A boolean column as WHERE, HAVING and a join residual read it:
        only TRUE keeps a row, so a NULL reads ``False``."""
        if dtype is not bool:
            raise TypeError(f"a column with NULLs does not cast to {dtype}")
        return self.values.astype(bool) & self.valid


def split_nulls(col) -> tuple:
    """``(values, valid)`` of a column; ``valid`` is ``None`` without a mask."""
    return (col.values, col.valid) if type(col) is MaskedColumn else (col, None)


def valid_rows(columns: Sequence) -> np.ndarray | None:
    """Rows where no column is NULL; ``None`` when no column has a mask."""
    masks = [col.valid for col in columns if type(col) is MaskedColumn]
    return np.logical_and.reduce(masks) if masks else None


def with_nulls(col, valid: np.ndarray | None):
    """``col`` with every row where ``valid`` is ``False`` NULL as well;
    the mask is dropped when no row is NULL."""
    if valid is None:
        return col
    if type(col) is MaskedColumn:
        col, valid = col.values, col.valid & valid
    return col if valid.all() else MaskedColumn(col, valid)


def map_values(fn: Callable, col):
    """``fn`` over the values of ``col``, its NULLs kept where they are."""
    return MaskedColumn(fn(col.values), col.valid) if type(col) is MaskedColumn else fn(col)


def concat_columns(columns: Sequence) -> "np.ndarray | DictColumn | MaskedColumn":
    """``np.concatenate`` for page columns of one type."""
    for col in columns:
        if type(col) is MaskedColumn:
            parts = list(map(split_nulls, columns))
            valid = [np.ones(len(v), dtype=bool) if m is None else m for v, m in parts]
            return MaskedColumn(concat_columns([v for v, _ in parts]), np.concatenate(valid))
    if isinstance(columns[0], DictColumn):
        codes, dictionary = unify(columns)
        return DictColumn(np.concatenate(codes), dictionary)
    return np.concatenate(columns)
