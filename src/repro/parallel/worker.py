"""Worker-process entry point: a blocking job loop over one duplex pipe.

Array data always travels through shared memory (see :mod:`pagebuf`);
the pipe carries only control messages, layout metadata, and small
params dicts.

Messages host -> worker::

    ("job", ticket, kind, seg_name | None, meta, params)
    ("stop",)

Replies worker -> host::

    ("ok", ticket, out_seg_name | None, out_meta, values, exec_ns)
    ("err", ticket, exc_type_name, message, traceback_text)
"""

from __future__ import annotations

import time
import traceback

from .jobs import run_job
from .pagebuf import decode_arrays, encode_arrays, write_buffers
from .shm import attach_segment, create_segment

__all__ = ["worker_main"]


def _run_one(kind: str, seg_name, meta, params):
    """Attach -> decode -> run -> encode; returns the reply payload."""
    seg = None
    arrays: list = []
    try:
        if seg_name is not None:
            seg = attach_segment(seg_name)
            arrays = decode_arrays(seg.buf, meta)
        out_arrays, values = run_job(kind, arrays, params)
        out_name = None
        out_meta: list = []
        if out_arrays:
            out_meta, buffers, total = encode_arrays(out_arrays)
            out_seg = create_segment(total)
            write_buffers(out_seg.buf, buffers)
            del buffers
            out_name = out_seg.name
            # Close our mapping; the host attaches by name and unlinks.
            out_seg.close()
        # Result arrays may be views into the input segment (the echo
        # job returns its inputs); drop them before the segment is closed.
        del out_arrays
        return out_name, out_meta, values
    finally:
        del arrays
        if seg is not None:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - job kept a view alive
                pass


def worker_main(conn, parent_conn=None) -> None:
    """Blocking worker loop; returns when told to stop or the pipe dies."""
    if parent_conn is not None:
        parent_conn.close()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - host went away
            return
        if msg[0] == "stop":
            return
        _, ticket, kind, seg_name, meta, params = msg
        started = time.perf_counter_ns()
        try:
            out_name, out_meta, values = _run_one(kind, seg_name, meta, params)
            exec_ns = time.perf_counter_ns() - started
            reply = ("ok", ticket, out_name, out_meta, values, exec_ns)
        except BaseException as exc:  # noqa: BLE001 - reported, not rethrown
            reply = (
                "err",
                ticket,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover
            return
