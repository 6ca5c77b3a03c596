"""``repro.parallel``: a shared-memory worker-pool transport, and nothing
the engine uses.

What is left of the per-kernel offload backend after its five job kinds
were deleted (DESIGN.md §15): a fork pool with death detection and
respawn (:mod:`pool`), the array codec over
``multiprocessing.shared_memory`` (:mod:`pagebuf`, :mod:`shm`), and a
client that ships one job and waits for it with bounded crash retry
(:mod:`offload`).  Only ``bench/`` and the transport's own tests import
it; the ``benchmark`` PR of ROADMAP item 2 detaches ``bench/``, after
which the package is deleted or carries the one leaf-fragment attempt.
"""

from .offload import OffloadClient, OffloadStats
from .pool import WorkerPool, get_pool, shutdown_pools

__all__ = [
    "OffloadClient",
    "OffloadStats",
    "WorkerPool",
    "get_pool",
    "shutdown_pools",
]
