"""Data substrate: tables, catalog, splits; CSV I/O (:mod:`.csvio`) and
the TPC-H generator and dataset cache (:mod:`.tpch`) are imported by
name."""

from .catalog import Catalog
from .splits import PAPER_SPLIT_SCHEME, SplitLayout, TableSplit
from .table import Table

__all__ = [
    "Catalog",
    "PAPER_SPLIT_SCHEME",
    "SplitLayout",
    "Table",
    "TableSplit",
]
