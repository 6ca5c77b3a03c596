"""Columnar spill files: pages serialized through the Page buffer path.

A spill file is a sequence of page records.  Each record is a small
``int64`` header — row count, buffer count, and the byte length of every
buffer — followed by the raw buffers from :meth:`Page.column_buffers`.
Fixed-width columns and string codes go to disk as one ``write()`` of
the array's own memoryview (no intermediate copy) and come back as
``np.frombuffer`` views over the read buffer; a string column's
dictionary travels with each record (only the entries in use when it
outsizes the page) and is decoded once per entry.

What a record is *charged* — against memory budgets and as virtual spill
I/O — is its accounted size (:func:`accounted_record_bytes`), a function
of the page's accounted size alone, so elasticity decisions do not
depend on how compactly the dictionary encoding lays bytes out on disk.

Writers are append-only and cheap to keep open (one buffered file handle
per partition); readers stream the file page by page so a partition is
never fully materialised unless the consumer concatenates it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ...errors import ExecutionError
from ...pages import Page, Schema
from ...pages.page import PAGE_OVERHEAD_BYTES

_HEADER_DTYPE = np.dtype(np.int64)


def accounted_record_bytes(page: Page) -> int:
    """Size of ``page`` as a record in the cost model's row-wise layout:
    a header of row count, buffer count and one length per buffer (two
    buffers per string column: cell lengths, payload) plus the page's
    accounted payload bytes."""
    schema = page.schema
    buffers = len(schema) + len(schema.string_positions)
    return (
        _HEADER_DTYPE.itemsize * (2 + buffers)
        + page.size_bytes
        - PAGE_OVERHEAD_BYTES
    )


class SpillWriter:
    """Append-only spill file for pages of one schema."""

    def __init__(self, path: Path, schema: Schema):
        self.path = Path(path)
        self.schema = schema
        self.pages = 0
        self.rows = 0
        #: Physical file size / accounted (charged) size so far.
        self.bytes_written = 0
        self.accounted_bytes = 0
        self._file = open(self.path, "wb", buffering=1 << 16)

    def write_page(self, page: Page) -> int:
        """Serialise one data page; returns the bytes to charge for it."""
        if self._file is None:
            raise ExecutionError(f"spill file {self.path.name} already closed")
        buffers = page.column_buffers()
        header = np.empty(2 + len(buffers), dtype=_HEADER_DTYPE)
        header[0] = page.num_rows
        header[1] = len(buffers)
        for i, buf in enumerate(buffers):
            header[2 + i] = len(buf) if isinstance(buf, bytes) else buf.nbytes
        written = header.nbytes
        self._file.write(memoryview(header).cast("B"))
        for buf in buffers:
            self._file.write(buf)
            written += len(buf) if isinstance(buf, bytes) else buf.nbytes
        self.pages += 1
        self.rows += page.num_rows
        self.bytes_written += written
        accounted = accounted_record_bytes(page)
        self.accounted_bytes += accounted
        return accounted

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class SpillReader:
    """Streams the pages of one spill file back, in write order."""

    def __init__(self, path: Path, schema: Schema):
        self.path = Path(path)
        self.schema = schema

    def __iter__(self):
        header_item = _HEADER_DTYPE.itemsize
        with open(self.path, "rb", buffering=1 << 16) as f:
            while True:
                prefix = f.read(2 * header_item)
                if not prefix:
                    return
                num_rows, nbuffers = np.frombuffer(
                    prefix, dtype=_HEADER_DTYPE
                ).tolist()
                sizes = np.frombuffer(
                    f.read(nbuffers * header_item), dtype=_HEADER_DTYPE
                ).tolist()
                buffers = [f.read(size) for size in sizes]
                yield Page.from_column_buffers(self.schema, num_rows, buffers)

    def read_all(self) -> list[Page]:
        return list(self)
