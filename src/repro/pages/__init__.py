"""Columnar page format: schemas, pages and end pages."""

from .dictcolumn import DictColumn
from .page import Page, PageKind, concat_pages
from .schema import ColumnType, Field, Schema

__all__ = [
    "ColumnType",
    "DictColumn",
    "Field",
    "Page",
    "PageKind",
    "Schema",
    "concat_pages",
]
