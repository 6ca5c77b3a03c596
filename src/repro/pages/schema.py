"""Column types and schemas for the columnar page format.

Accordion exchanges data between operators and tasks as columnar pages
(the paper uses Apache Arrow record batches; we use numpy arrays with an
explicit logical type layer on top).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .dictcolumn import DictColumn
from .masked import MaskedColumn


class ColumnType(enum.Enum):
    """Logical column types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    BOOL = "bool"
    STRING = "string"
    #: Days since 1970-01-01, stored as int64 (TPC-H date columns).
    DATE = "date"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The physical numpy dtype used to store this logical type."""
        return _NUMPY_DTYPES[self]

    @property
    def fixed_width(self) -> int | None:
        """Bytes per value for fixed-width types, ``None`` for strings."""
        return _FIXED_WIDTHS[self]

    def coerce(self, values: Iterable) -> "np.ndarray | DictColumn | MaskedColumn":
        """Build a column of this type from arbitrary values; ``None``
        cells are NULLs (the validity mask, over an empty or zero value)."""
        if isinstance(values, (DictColumn, MaskedColumn)):
            return values
        if not isinstance(values, np.ndarray) or values.dtype == object:
            values = list(values)
            if None in values:
                valid = np.array([v is not None for v in values], dtype=bool)
                filler = "" if self is ColumnType.STRING else 0
                return MaskedColumn(self.coerce([filler if v is None else v for v in values]), valid)
        if self is ColumnType.STRING:
            return DictColumn.from_values(values)
        return np.asarray(values, dtype=self.numpy_dtype)

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DATE)


#: dtype tables (building an np.dtype per property call shows in profiles).
_NUMPY_DTYPES = {
    ColumnType.INT64: np.dtype(np.int64),
    ColumnType.DATE: np.dtype(np.int64),
    ColumnType.FLOAT64: np.dtype(np.float64),
    ColumnType.BOOL: np.dtype(np.bool_),
    ColumnType.STRING: np.dtype(object),
}
_FIXED_WIDTHS = {
    t: (None if t is ColumnType.STRING else _NUMPY_DTYPES[t].itemsize)
    for t in ColumnType
}


@dataclass(frozen=True)
class Field:
    """A named, typed column in a schema; ``nullable`` when a row of it
    can be NULL (known when the plan is bound)."""

    name: str
    type: ColumnType
    nullable: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.name}:{self.type.value}"


class Schema:
    """An ordered collection of :class:`Field` with name lookup.

    Schemas are immutable; transformations return new schemas.
    """

    __slots__ = ("fields", "_index", "string_positions", "fixed_row_bytes",
                 "_selected")

    def __init__(self, fields: Iterable[Field]):
        self.fields: tuple[Field, ...] = tuple(fields)
        self._index: dict[str, int] = {}
        strings = []
        fixed = 0
        for i, f in enumerate(self.fields):
            # Keep the first occurrence on duplicate names (joins may
            # produce duplicates; positional access remains unambiguous).
            self._index.setdefault(f.name, i)
            width = _FIXED_WIDTHS[f.type]
            if width is None:
                strings.append(i)
            else:
                fixed += width
        #: Positions of the STRING (dictionary-encoded) columns, and the
        #: bytes per row of all the others (what sizing a page needs).
        self.string_positions: tuple[int, ...] = tuple(strings)
        self.fixed_row_bytes = fixed
        #: Projections already built by :meth:`select` (schemas are
        #: immutable, and a scan asks for the same one with every page).
        self._selected: dict[tuple[int, ...], Schema] = {}

    @classmethod
    def of(cls, *pairs: tuple[str, ColumnType]) -> "Schema":
        """Convenience constructor: ``Schema.of(("a", INT64), ...)``."""
        return cls(Field(name, typ) for name, typ in pairs)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Schema({', '.join(map(repr, self.fields))})"

    def identity_key(self, literals: bool) -> tuple:
        """What :func:`repro.tree.identity` sees: (name, type) pairs."""
        return tuple([(f.name, f.type.value) for f in self.fields])

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def types(self) -> list[ColumnType]:
        return [f.type for f in self.fields]

    def index_of(self, name: str) -> int:
        """Position of column ``name``; raises ``KeyError`` if absent."""
        return self._index[name]

    def field(self, ref: int | str) -> Field:
        if isinstance(ref, str):
            ref = self.index_of(ref)
        return self.fields[ref]

    def contains(self, name: str) -> bool:
        return name in self._index

    def select(self, indexes: Iterable[int]) -> "Schema":
        """Schema of a positional projection (memoised per index tuple)."""
        key = tuple(indexes)
        schema = self._selected.get(key)
        if schema is None:
            schema = self._selected[key] = Schema(self.fields[i] for i in key)
        return schema

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a row-wise concatenation (join output)."""
        return Schema(self.fields + other.fields)

    def rename(self, names: Iterable[str]) -> "Schema":
        names = list(names)
        if len(names) != len(self.fields):
            raise ValueError("rename arity mismatch")
        return Schema(Field(n, f.type, f.nullable) for n, f in zip(names, self.fields))
