"""Out-of-core execution: the spill files (DESIGN.md §13).

Two layers, bottom up, under the per-query accounting of
:mod:`repro.exec.memory`, whose first spill loads this package:

* :mod:`pagefile` — append-only columnar spill files written through the
  :meth:`Page.column_buffers` zero-copy path.
* :mod:`partition` — Grace-style radix partitioning of pages onto spill
  files, level-salted so recursive repartitioning uses fresh hash bits.
"""

from .pagefile import SpillReader, SpillWriter
from .partition import SpillPartitions, radix_assignments

__all__ = [
    "SpillPartitions",
    "SpillReader",
    "SpillWriter",
    "radix_assignments",
]
