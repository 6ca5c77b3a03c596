"""The job registry: pure functions over buffer-described inputs.

Every job is ``f(arrays, params) -> (arrays_out, values_out)`` where
``arrays`` came out of the shared-memory codec and ``params`` is a small
picklable dict.  Jobs are **pure**: the same job always returns
bit-identical arrays, which is what lets the client resubmit one whose
worker died.  Only the transport's own test jobs are registered.
"""

from __future__ import annotations

import os
import time

__all__ = ["run_job"]


def _job_echo(arrays, params):
    return list(arrays), dict(params.get("values", {}))


def _job_crash(arrays, params):  # pragma: no cover - kills the process
    os._exit(17)


def _job_sleep(arrays, params):
    time.sleep(params.get("seconds", 0.05))
    return [], {}


def _job_raise(arrays, params):
    raise ValueError(params.get("message", "offload job failed"))


_JOBS = {
    "_test_echo": _job_echo,
    "_test_crash": _job_crash,
    "_test_sleep": _job_sleep,
    "_test_raise": _job_raise,
}


def run_job(kind: str, arrays, params):
    fn = _JOBS.get(kind)
    if fn is None:
        raise ValueError(f"unknown job kind {kind!r}")
    return fn(arrays, params)
