"""Host-side client of the worker pool: ship one job, wait for it.

Arrays are packed into a shared-memory segment (:mod:`pagebuf`), the job
is dispatched (:mod:`pool`), and the result is decoded back into
host-owned arrays.  **Crash containment:** the input segment is retained
until the job succeeds, so a job that died with its worker is
resubmitted as-is (jobs are pure) up to ``max_retries`` times, then
surfaces as :class:`~repro.errors.WorkerCrashedError`.  An exception
raised *inside* a job is deterministic and re-raised immediately as
:class:`~repro.errors.WorkerJobError` with the remote traceback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import WorkerCrashedError, WorkerJobError
from .pagebuf import decode_arrays, encode_arrays, write_buffers
from .pool import get_pool
from .shm import attach_segment, create_segment, unlink_segment

__all__ = ["OffloadClient", "OffloadStats"]


@dataclass(slots=True)
class OffloadStats:
    """Wall-clock transport telemetry of one client."""

    jobs: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    exec_ns: int = 0
    wait_ns: int = 0
    retries: int = 0
    crashes: int = 0
    job_errors: int = 0

    def snapshot(self) -> dict:
        return {
            "jobs": self.jobs,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
            "exec_ms": self.exec_ns / 1e6,
            "wait_ms": self.wait_ns / 1e6,
            "retries": self.retries,
            "crashes": self.crashes,
            "job_errors": self.job_errors,
        }


class _Inflight:
    """One submitted job: the opaque handle :meth:`OffloadClient.wait`
    takes.  ``job`` is the pool-submit argument tuple, kept with the
    input segment so a crashed job can be resubmitted as-is."""

    __slots__ = ("seg", "job", "ticket", "retries")

    def __init__(self, seg, job, ticket):
        self.seg = seg
        self.job = job
        self.ticket = ticket
        self.retries = 0


class OffloadClient:
    """Owns no processes itself — pools are process-wide singletons
    shared by every client with the same worker count."""

    def __init__(self, config):
        self.config = config
        self.pool = get_pool(config.workers)
        self.stats = OffloadStats()

    def submit(self, kind: str, arrays, params: dict) -> _Inflight:
        """Dispatch one job; returns an opaque handle for :meth:`wait`."""
        seg = None
        meta: list = []
        if arrays:
            meta, buffers, total = encode_arrays(arrays)
            seg = create_segment(total)
            write_buffers(seg.buf, buffers)
            del buffers
            self.stats.bytes_out += total
        job = (kind, None if seg is None else seg.name, meta, params)
        self.stats.jobs += 1
        return _Inflight(seg, job, self.pool.submit(*job))

    def wait(self, info: _Inflight):
        """Block until the job resolves; returns ``(arrays, values)``.

        Retries crashed jobs (bounded), re-raises remote job exceptions,
        and always releases the input segment before returning/raising.
        """
        kind = info.job[0]
        started = time.perf_counter_ns()
        try:
            while True:
                result = self.pool.wait(info.ticket)
                tag = result[0]
                if tag == "ok":
                    _, out_name, out_meta, values, exec_ns = result
                    self.stats.exec_ns += exec_ns
                    arrays: list = []
                    if out_name is not None:
                        out_seg = attach_segment(out_name)
                        arrays = decode_arrays(out_seg.buf, out_meta, copy=True)
                        self.stats.bytes_in += out_seg.size
                        unlink_segment(out_seg)
                    return arrays, values
                if tag == "err":
                    _, exc_type, message, remote_tb = result
                    self.stats.job_errors += 1
                    raise WorkerJobError(
                        f"offload job {kind!r} raised {exc_type}: {message}",
                        kind=kind,
                        remote_traceback=remote_tb,
                    )
                # crash: resubmit the retained input as-is (jobs are pure).
                self.stats.crashes += 1
                if info.retries >= self.config.max_retries:
                    raise WorkerCrashedError(
                        f"offload job {kind!r} lost to worker crashes "
                        f"after {info.retries} retries",
                        kind=kind,
                        retries=info.retries,
                    )
                info.retries += 1
                self.stats.retries += 1
                info.ticket = self.pool.submit(*info.job)
        finally:
            self.stats.wait_ns += time.perf_counter_ns() - started
            if info.seg is not None:
                unlink_segment(info.seg)
                info.seg = None
