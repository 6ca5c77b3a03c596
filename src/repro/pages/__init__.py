"""Columnar page format: schemas, pages, end pages, and builders."""

from .builder import PageBuilder
from .dictcolumn import DictColumn
from .page import Page, PageKind, concat_pages
from .schema import ColumnType, Field, Schema

__all__ = [
    "ColumnType",
    "DictColumn",
    "Field",
    "Page",
    "PageBuilder",
    "PageKind",
    "Schema",
    "concat_pages",
]
