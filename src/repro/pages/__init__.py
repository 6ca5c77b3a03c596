"""Columnar page format: schemas, pages and end pages."""

from .dictcolumn import DictColumn
from .masked import MaskedColumn
from .page import Page, PageKind, concat_pages
from .schema import ColumnType, Field, Schema

__all__ = [
    "ColumnType",
    "DictColumn",
    "Field",
    "MaskedColumn",
    "Page",
    "PageKind",
    "Schema",
    "concat_pages",
]
