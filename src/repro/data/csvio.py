"""CSV persistence for tables.

The paper stores TPC-H tables as CSV files read through the Arrow CSV
reader (Section 6.1).  The engine here works from in-memory tables for
speed, but this module provides faithful CSV round-tripping so examples
can demonstrate the file-based workflow.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..pages import ColumnType, Schema
from ..util import date_to_days, days_to_str
from .table import Table


def write_csv(table: Table, path: str | Path, delimiter: str = "|") -> Path:
    """Write ``table`` to ``path`` (TPC-H style ``|``-separated, no
    header); a NULL cell is an empty field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    types = table.schema.types()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        for row in zip(*[c.tolist() for c in table.columns]):
            out = []
            for value, typ in zip(row, types):
                if value is None:
                    out.append("")
                elif typ is ColumnType.DATE:
                    out.append(days_to_str(value))
                elif typ is ColumnType.FLOAT64:
                    out.append(f"{value:.2f}")
                else:
                    out.append(value)
            writer.writerow(out)
    return path


#: Cell text -> value, per column type (STRING cells are kept as text).
_PARSERS = {
    ColumnType.DATE: date_to_days,
    ColumnType.INT64: int,
    ColumnType.FLOAT64: float,
    ColumnType.BOOL: lambda v: v in ("1", "true", "True"),
    ColumnType.STRING: str,
}


def read_csv(
    name: str, schema: Schema, path: str | Path, delimiter: str = "|"
) -> Table:
    """Read a TPC-H style CSV file back into a :class:`Table`; an empty
    field of a nullable field is NULL."""
    raw_columns: list[list] = [[] for _ in schema]
    with Path(path).open(newline="") as fh:
        for row in csv.reader(fh, delimiter=delimiter):
            if not row:
                continue
            if len(row) != len(schema):
                raise ValueError(
                    f"{path}: expected {len(schema)} fields, got {len(row)}"
                )
            for cell, bucket in zip(row, raw_columns):
                bucket.append(cell)

    columns: list = []
    for field, values in zip(schema, raw_columns):
        parse = _PARSERS[field.type]
        null = "" if field.nullable else None
        columns.append(field.type.coerce([None if v == null else parse(v) for v in values]))
    return Table(name, schema, columns)
