"""The worker-process pool: spawn, dispatch, death detection, respawn.

The pool is deliberately dumb about *what* jobs do — it moves control
messages over per-worker pipes and reports per-ticket outcomes as plain
status tuples (``("ok", ...)``, ``("err", ...)``, ``("crash",)``).
Policy — retries, structured exceptions, result decoding — lives in
:class:`repro.parallel.offload.OffloadClient`.

Crash handling: every in-flight ticket is tagged with the worker it was
sent to.  When a worker dies (pipe EOF / dead process / job-deadline
overrun, in which case it is killed), all of its in-flight tickets
resolve to ``("crash",)`` and the worker is respawned — so a crash can
never strand a waiter.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import time
from multiprocessing import connection

from .shm import ensure_tracker_running
from .worker import worker_main

__all__ = ["WorkerPool", "get_pool", "shutdown_pools"]


class _Worker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


#: Wall-clock seconds before an unresponsive job's worker is killed
#: (the hang backstop; generous because it is per job, not per page).
JOB_TIMEOUT_S = 120.0


class WorkerPool:
    """A fixed-size pool of forked worker processes."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.size = workers
        # One tracker for host + workers: start it before the first fork.
        ensure_tracker_running()
        self._ctx = mp.get_context("fork")
        self._workers: list[_Worker | None] = [None] * workers
        self._next_ticket = 0
        self._rr = 0
        #: ticket -> worker slot it was dispatched to
        self._pending: dict[int, int] = {}
        #: ticket -> status tuple, drained by :meth:`wait`
        self._done: dict[int, tuple] = {}
        self.respawns = 0
        self._closed = False
        for slot in range(workers):
            self._spawn(slot)

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self, slot: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, parent_conn),
            name=f"repro-worker-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers[slot] = _Worker(proc, parent_conn)

    def _bury(self, slot: int) -> None:
        """Resolve every in-flight ticket on a dead worker and respawn it."""
        worker = self._workers[slot]
        if worker is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            if worker.proc.is_alive():  # pragma: no cover - deadline kills
                worker.proc.terminate()
            worker.proc.join(timeout=5.0)
            self._workers[slot] = None
        for ticket, owner in list(self._pending.items()):
            if owner == slot:
                del self._pending[ticket]
                self._done[ticket] = ("crash",)
        if not self._closed:
            self.respawns += 1
            self._spawn(slot)

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            if worker is None:
                continue
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.terminate()
                worker.proc.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers = [None] * self.size
        for ticket in self._pending:
            self._done[ticket] = ("crash",)
        self._pending.clear()

    # -- dispatch ----------------------------------------------------------
    def submit(self, kind, seg_name, meta, params) -> int:
        """Dispatch one job round-robin; returns its ticket id."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        ticket = self._next_ticket
        self._next_ticket += 1
        slot = self._rr
        self._rr = (self._rr + 1) % self.size
        target = self._workers[slot]
        try:
            target.conn.send(("job", ticket, kind, seg_name, meta, params))
        except (BrokenPipeError, OSError):
            self._bury(slot)
            self._done[ticket] = ("crash",)
            return ticket
        self._pending[ticket] = slot
        return ticket

    # -- completion --------------------------------------------------------
    def _drain_ready(self, timeout: float) -> None:
        conns = {
            worker.conn: slot
            for slot, worker in enumerate(self._workers)
            if worker is not None
        }
        if not conns:
            return
        for conn in connection.wait(list(conns), timeout):
            slot = conns[conn]
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self._bury(slot)
                continue
            tag, ticket = reply[0], reply[1]
            self._pending.pop(ticket, None)
            if tag == "ok":
                self._done[ticket] = ("ok", reply[2], reply[3], reply[4], reply[5])
            else:
                self._done[ticket] = ("err", reply[2], reply[3], reply[4])

    def wait(self, ticket: int) -> tuple:
        """Block until ``ticket`` resolves; kills its worker on deadline.

        Returns ``("ok", seg_name, meta, values, exec_ns)``,
        ``("err", exc_type, message, traceback)`` or ``("crash",)``.
        """
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            result = self._done.pop(ticket, None)
            if result is not None:
                return result
            if ticket not in self._pending:
                return ("crash",)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Deadline overrun: the assigned worker is presumed hung.
                slot = self._pending[ticket]
                worker = self._workers[slot]
                if worker is not None and worker.proc.is_alive():
                    worker.proc.terminate()
                self._bury(slot)
                return self._done.pop(ticket, ("crash",))
            self._drain_ready(min(remaining, 0.1))


# -- process-wide pool registry -------------------------------------------
_POOLS: dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """Process-wide pool singleton per worker count (clients are cheap
    and plentiful in tests and benchmarks; forked workers are not)."""
    pool = _POOLS.get(workers)
    if pool is None or pool._closed:
        pool = _POOLS[workers] = WorkerPool(workers)
    return pool


def shutdown_pools() -> None:
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)
