"""Radix (Grace-style) hash partitioning of pages onto spill files.

Every spill level consumes a disjoint slice of the same stable 64-bit row
hash (:func:`repro.sql.functions.hash_columns`): level 0 partitions on
the low bits, level 1 on the next ``log2(fanout)`` bits, and so on.
Build and probe side use identical key hashing, so a join key always
lands in the same partition index on both sides and partitions can be
joined pairwise.  Recursive repartitioning just re-runs the same routine
at ``level + 1`` over one oversized partition's pages.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ...pages import Page, Schema
from ...sql.functions import hash_columns
from .pagefile import SpillReader, SpillWriter


def radix_assignments(
    key_cols: list[np.ndarray], fanout: int, level: int
) -> np.ndarray:
    """Partition index per row from the ``level``-th radix digit of the
    stable row hash."""
    shift = np.uint64(level * max(1, (fanout - 1).bit_length()))
    return ((hash_columns(key_cols) >> shift) % np.uint64(fanout)).astype(
        np.int64
    )


#: Radix fan-out per spill level (partition count).
FANOUT = 8


class SpillPartitions:
    """``fanout`` append-only spill files for one operator side/level."""

    def __init__(
        self,
        directory: Path,
        name: str,
        schema: Schema,
        key_positions: list[int],
        fanout: int = FANOUT,
        level: int = 0,
    ):
        self.directory = Path(directory)
        self.name = name
        self.schema = schema
        self.key_positions = key_positions
        self.fanout = fanout
        self.level = level
        self._writers: dict[int, SpillWriter] = {}

    # -- write side -------------------------------------------------------
    def write_page(self, page: Page) -> int:
        """Split one page across the partitions; returns the accounted
        bytes written."""
        if page.num_rows == 0:
            return 0
        key_cols = [page.columns[k] for k in self.key_positions]
        parts = radix_assignments(key_cols, self.fanout, self.level)
        written = 0
        for p in np.unique(parts).tolist():
            sub = page.mask(parts == p)
            written += self._writer(p).write_page(sub)
        return written

    def _writer(self, p: int) -> SpillWriter:
        writer = self._writers.get(p)
        if writer is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"{self.name}.l{self.level}.p{p}.spill"
            writer = self._writers[p] = SpillWriter(path, self.schema)
        return writer

    def finish(self) -> None:
        """Flush and close every partition file (they stay readable)."""
        for writer in self._writers.values():
            writer.close()

    # -- read side --------------------------------------------------------
    def partition_bytes(self, p: int) -> int:
        writer = self._writers.get(p)
        return writer.accounted_bytes if writer is not None else 0

    @property
    def partitions_written(self) -> int:
        return len(self._writers)

    @property
    def total_bytes(self) -> int:
        return sum(w.accounted_bytes for w in self._writers.values())

    def read_pages(self, p: int):
        """Iterate the pages of partition ``p`` (empty if never written)."""
        writer = self._writers.get(p)
        if writer is None:
            return iter(())
        return iter(SpillReader(writer.path, self.schema))

    def delete(self) -> None:
        """Close and remove every partition file (post-merge cleanup)."""
        for writer in self._writers.values():
            writer.close()
            try:
                writer.path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._writers.clear()
