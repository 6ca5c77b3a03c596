"""Host-side offload client: the API operators program against.

The client turns operator-level requests ("probe this page against that
pinned index", "reduce this page's aggregation partials") into pool
jobs: arrays are packed into shared-memory segments (:mod:`pagebuf`),
dispatched (:mod:`pool`), and results decoded back into host-owned
arrays.  Two properties matter more than raw speed:

* **Determinism.**  Elementwise kernels (probe expansion, filter masks,
  projected columns, radix assignments) are chunked by row range and the
  chunk results concatenated in chunk order, which is bit-identical to
  the whole-page computation by construction.  Deferred jobs
  (aggregation partials) are waited in submission order at operator sync
  points.  Wall-clock completion order never influences any result.
* **Crash containment.**  Input segments are retained until a job
  succeeds, so a job that died with its worker is resubmitted as-is (all
  job kinds are pure) up to ``max_retries`` times, then surfaces as
  :class:`~repro.errors.WorkerCrashedError`.  Exceptions raised *inside*
  a job are deterministic and re-raised immediately as
  :class:`~repro.errors.WorkerJobError` with the remote traceback.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from ..errors import WorkerCrashedError, WorkerJobError
from ..pages.dictcolumn import concat_columns
from .pagebuf import decode_arrays, encode_arrays, write_buffers
from .pool import get_pool
from .shm import attach_segment, create_segment, unlink_segment

__all__ = ["OffloadClient", "OffloadStats"]

#: Spec/index ids must be process-unique, not per-client: pools (and the
#: worker-side caches keyed by these ids) are process-wide singletons
#: shared by every engine, so a second engine reusing id 0 would collide
#: with the first engine's broadcast state.
_SPEC_IDS = itertools.count()
_INDEX_IDS = itertools.count()


class OffloadStats:
    """Side-band offload telemetry.

    Deliberately kept out of traces and :class:`WorkloadReport` content:
    wall-clock job timings vary run to run, and report bytes must stay
    identical between serial and parallel executions of the same seed.
    """

    __slots__ = (
        "jobs",
        "jobs_by_kind",
        "bytes_out",
        "bytes_in",
        "exec_ns",
        "wait_ns",
        "retries",
        "crashes",
        "job_errors",
    )

    def __init__(self):
        self.jobs = 0
        self.jobs_by_kind: dict[str, int] = {}
        self.bytes_out = 0
        self.bytes_in = 0
        self.exec_ns = 0
        self.wait_ns = 0
        self.retries = 0
        self.crashes = 0
        self.job_errors = 0

    def snapshot(self) -> dict:
        out = {
            "jobs": self.jobs,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
            "exec_ms": self.exec_ns / 1e6,
            "wait_ms": self.wait_ns / 1e6,
            # Host blocked time per job: the queue-wait cost of offloading.
            "wait_ms_per_job": (
                round(self.wait_ns / 1e6 / self.jobs, 3) if self.jobs else 0.0
            ),
            # Worker exec time per host blocked time: > 1 means the pool
            # delivered real overlap; < 1 means IPC overhead dominated.
            "utilization": (
                round(self.exec_ns / self.wait_ns, 3) if self.wait_ns else 0.0
            ),
            "retries": self.retries,
            "crashes": self.crashes,
            "job_errors": self.job_errors,
        }
        for kind, count in sorted(self.jobs_by_kind.items()):
            out[f"jobs.{kind}"] = count
        return out


class _Inflight:
    __slots__ = ("seg", "meta", "kind", "params", "worker", "retries", "ticket")

    def __init__(self, seg, meta, kind, params, worker, ticket):
        self.seg = seg
        self.meta = meta
        self.kind = kind
        self.params = params
        self.worker = worker
        self.retries = 0
        self.ticket = ticket


class OffloadClient:
    """One per engine with ``parallel.workers > 0``; owns no processes
    itself — pools are process-wide singletons shared across engines."""

    def __init__(self, config):
        self.config = config
        self.workers = config.workers
        self.pool = get_pool(config.workers)
        self.stats = OffloadStats()
        self._inflight: dict[int, _Inflight] = {}
        self._next_handle = 0
        self._pinned: dict[int, object] = {}

    # -- broadcast state ---------------------------------------------------
    def register_spec(self, payload: dict) -> int:
        """Broadcast a compiled-operator spec (filter/project expression
        payload); workers compile it lazily on first use."""
        spec_id = next(_SPEC_IDS)
        self.pool.broadcast(("spec", spec_id, payload), replay_key=("spec", spec_id))
        return spec_id

    def pin_index(self, key_cols) -> int:
        """Ship join-build key columns once; workers lazily derive the
        (deterministic) build index from them on first probe."""
        index_id = next(_INDEX_IDS)
        meta, buffers, total = encode_arrays(key_cols)
        seg = create_segment(total)
        write_buffers(seg.buf, buffers)
        del buffers
        self.stats.bytes_out += total
        self._pinned[index_id] = seg
        self.pool.broadcast(
            ("pin", index_id, seg.name, meta), replay_key=("pin", index_id)
        )
        return index_id

    def release_index(self, index_id: int) -> None:
        seg = self._pinned.pop(index_id, None)
        if seg is None:
            return
        self.pool.unbroadcast(("pin", index_id), ("release", index_id))
        unlink_segment(seg)

    # -- job lifecycle -----------------------------------------------------
    def submit(self, kind: str, arrays, params: dict, worker: int | None = None) -> int:
        """Dispatch one job; returns an opaque handle for :meth:`wait`."""
        seg = None
        meta: list = []
        if arrays:
            meta, buffers, total = encode_arrays(arrays)
            seg = create_segment(total)
            write_buffers(seg.buf, buffers)
            del buffers
            self.stats.bytes_out += total
        ticket = self.pool.submit(
            kind, None if seg is None else seg.name, meta, params, worker
        )
        handle = self._next_handle
        self._next_handle += 1
        self._inflight[handle] = _Inflight(seg, meta, kind, params, worker, ticket)
        self.stats.jobs += 1
        self.stats.jobs_by_kind[kind] = self.stats.jobs_by_kind.get(kind, 0) + 1
        return handle

    def wait(self, handle: int):
        """Block until the job resolves; returns ``(arrays, values)``.

        Retries crashed jobs (bounded), re-raises remote job exceptions,
        and always releases the input segment before returning/raising.
        """
        info = self._inflight.pop(handle)
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
                        f"offload job {info.kind!r} raised {exc_type}: {message}",
                        kind=info.kind,
                        remote_traceback=remote_tb,
                    )
                # crash: resubmit the retained input as-is (jobs are pure).
                self.stats.crashes += 1
                if info.retries >= self.config.max_retries:
                    raise WorkerCrashedError(
                        f"offload job {info.kind!r} lost to worker crashes "
                        f"after {info.retries} retries",
                        kind=info.kind,
                        retries=info.retries,
                    )
                info.retries += 1
                self.stats.retries += 1
                info.ticket = self.pool.submit(
                    info.kind,
                    None if info.seg is None else info.seg.name,
                    info.meta,
                    info.params,
                    info.worker,
                )
        finally:
            self.stats.wait_ns += time.perf_counter_ns() - started
            if info.seg is not None:
                unlink_segment(info.seg)
                info.seg = None

    # -- chunking ----------------------------------------------------------
    def want(self, num_rows: int) -> bool:
        return num_rows >= self.config.min_offload_rows

    def chunk_bounds(self, num_rows: int) -> list[tuple[int, int]]:
        """Deterministic near-even row ranges, at most one per worker and
        never smaller than ``min_chunk_rows`` (except the only chunk)."""
        chunks = min(self.workers, max(1, num_rows // self.config.min_chunk_rows))
        step, extra = divmod(num_rows, chunks)
        bounds = []
        start = 0
        for i in range(chunks):
            end = start + step + (1 if i < extra else 0)
            bounds.append((start, end))
            start = end
        return bounds

    def _fanout(self, kind: str, columns, num_rows: int, params: dict):
        """Submit one chunked job per row range with worker affinity."""
        handles = []
        for i, (start, end) in enumerate(self.chunk_bounds(num_rows)):
            chunk_params = dict(params)
            chunk_params["num_rows"] = end - start
            handles.append(
                self.submit(
                    kind,
                    [col[start:end] for col in columns],
                    chunk_params,
                    worker=i,
                )
            )
        return handles

    # -- operator-level helpers -------------------------------------------
    def probe_mask(self, index_id: int, key_cols, join: str) -> np.ndarray:
        """Semi/anti probe: the keep mask for each probe row."""
        num_rows = len(key_cols[0])
        handles = self._fanout(
            "probe", key_cols, num_rows, {"index": index_id, "join": join}
        )
        parts = [self.wait(h)[0][0] for h in handles]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def probe_expand(self, index_id: int, key_cols, need_mask: bool):
        """Inner/left probe: ``(probe_rows, build_rows[, matched_mask])``
        in probe-row order, exactly as ``expand_matches`` would produce."""
        num_rows = len(key_cols[0])
        params = {"index": index_id, "join": "inner"}
        if need_mask:
            params["need_mask"] = True
        handles = self._fanout("probe", key_cols, num_rows, params)
        probe_parts, build_parts, mask_parts = [], [], []
        for h, (start, _end) in zip(handles, self.chunk_bounds(num_rows)):
            arrays, _ = self.wait(h)
            probe_parts.append(arrays[0] + start if start else arrays[0])
            build_parts.append(arrays[1])
            if need_mask:
                mask_parts.append(arrays[2])
        probe_rows = (
            probe_parts[0] if len(probe_parts) == 1 else np.concatenate(probe_parts)
        )
        build_rows = (
            build_parts[0] if len(build_parts) == 1 else np.concatenate(build_parts)
        )
        if not need_mask:
            return probe_rows, build_rows, None
        mask = mask_parts[0] if len(mask_parts) == 1 else np.concatenate(mask_parts)
        return probe_rows, build_rows, mask

    def filter_mask(self, spec_id: int, columns, positions, num_rows: int):
        """Evaluate a compiled filter over referenced columns, chunked."""
        handles = self._fanout(
            "filter", columns, num_rows, {"spec": spec_id, "positions": positions}
        )
        parts = [self.wait(h)[0][0] for h in handles]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def project_columns(self, spec_id: int, columns, positions, num_rows: int):
        """Evaluate compiled projections over referenced columns, chunked."""
        handles = self._fanout(
            "project", columns, num_rows, {"spec": spec_id, "positions": positions}
        )
        parts = [self.wait(h)[0] for h in handles]
        if len(parts) == 1:
            return parts[0]
        return [concat_columns(cols) for cols in zip(*parts)]

    def radix_page(self, key_cols, fanout: int, level: int, num_rows: int):
        """Radix partition assignments for one page's key columns."""
        handles = self._fanout(
            "radix", key_cols, num_rows, {"fanout": fanout, "level": level}
        )
        parts = [self.wait(h)[0][0] for h in handles]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def submit_grouped(self, key_cols, value_arrays, ops, num_rows: int) -> int:
        """Fire-and-stash one page's aggregation partials.  ``ops`` index
        into ``key_cols + value_arrays``; the caller waits tickets in
        submission order via :meth:`wait_grouped`."""
        return self.submit(
            "grouped_reduce",
            list(key_cols) + list(value_arrays),
            {"num_keys": len(key_cols), "ops": ops, "num_rows": num_rows},
        )

    def wait_grouped(self, handle: int):
        """Resolve a :meth:`submit_grouped` ticket into
        ``(unique_key_cols, field_arrays, ngroups)``."""
        arrays, values = self.wait(handle)
        nkeys = values["nkeys"]
        return arrays[:nkeys], arrays[nkeys:], values["ngroups"]
