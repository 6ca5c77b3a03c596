"""Unit tests for the worker-pool transport (``repro.parallel``).

Covers the shared-memory array codec, job dispatch and result decoding,
and structured failure semantics (remote exceptions vs worker death vs
retry exhaustion).
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import AccordionEngine, EngineConfig
from repro.config import ParallelConfig
from repro.data.tpch.queries import QUERIES
from repro.errors import WorkerCrashedError, WorkerJobError
from repro.pages import DictColumn
from repro.parallel import OffloadClient, shutdown_pools
from repro.parallel.pagebuf import decode_arrays, encode_arrays, write_buffers


# -- codec (no processes involved) ----------------------------------------
def roundtrip(arrays, copy=True):
    meta, buffers, total = encode_arrays(arrays)
    backing = bytearray(total)
    write_buffers(memoryview(backing), buffers)
    return decode_arrays(memoryview(backing), meta, copy=copy)


def test_codec_fixed_width_roundtrip():
    arrays = [
        np.arange(100, dtype=np.int64),
        np.linspace(-1.0, 1.0, 33),
        np.array([1, 2, 3], dtype=np.int32),
        np.array([True, False, True]),
    ]
    out = roundtrip(arrays)
    assert len(out) == len(arrays)
    for src, dst in zip(arrays, out):
        assert dst.dtype == src.dtype
        np.testing.assert_array_equal(dst, src)


def test_codec_string_roundtrip():
    strings = DictColumn.from_values(["", "plain", "héllo → wørld", "x" * 1000])
    mixed = [strings, np.arange(4, dtype=np.int64), strings[::-1]]
    out = roundtrip(mixed)
    assert out[0].tolist() == strings.tolist()
    np.testing.assert_array_equal(out[1], mixed[1])
    assert out[2].tolist() == strings[::-1].tolist()


def test_codec_empty_strings_round_trip():
    # An empty string is an entry of length 0 like any other.
    out = roundtrip([DictColumn.from_values(["", "a", "", "b"])])
    assert out[0].tolist() == ["", "a", "", "b"]


def test_codec_empty_arrays():
    out = roundtrip([np.array([], dtype=np.float64), DictColumn.from_values([])])
    assert out[0].size == 0 and len(out[1]) == 0


def test_codec_views_without_copy():
    # copy=False returns frombuffer views for fixed-width arrays — the
    # zero-copy worker-side path.
    src = np.arange(16, dtype=np.int64)
    out = roundtrip([src], copy=False)
    assert out[0].base is not None
    np.testing.assert_array_equal(out[0], src)


# -- pool + client ---------------------------------------------------------
def make_client(**kwargs):
    kwargs.setdefault("workers", 2)
    return OffloadClient(ParallelConfig(**kwargs))


def test_echo_job_roundtrip():
    client = make_client()
    arrays = [np.arange(50, dtype=np.int64), DictColumn.from_values(["a", "b"])]
    handle = client.submit("_test_echo", arrays, {"values": {"answer": 42}})
    out, values = client.wait(handle)
    assert values == {"answer": 42}
    np.testing.assert_array_equal(out[0], arrays[0])
    assert out[1].tolist() == ["a", "b"]
    assert client.stats.jobs == 1
    assert client.stats.bytes_out > 0 and client.stats.bytes_in > 0


def test_job_exception_is_structured_and_not_retried():
    client = make_client()
    handle = client.submit("_test_raise", [], {"message": "boom-123"})
    with pytest.raises(WorkerJobError) as excinfo:
        client.wait(handle)
    assert "boom-123" in str(excinfo.value)
    assert excinfo.value.kind == "_test_raise"
    assert "ValueError" in excinfo.value.remote_traceback
    # Deterministic job errors must not burn the crash-retry budget.
    assert client.stats.retries == 0
    assert client.stats.job_errors == 1
    # The worker survives its own exception and keeps serving.
    out, _ = client.wait(client.submit("_test_echo", [np.arange(3)], {}))
    np.testing.assert_array_equal(out[0], np.arange(3))


def test_worker_death_surfaces_structured_error():
    client = make_client(max_retries=0)
    respawns_before = client.pool.respawns
    handle = client.submit("_test_crash", [], {})
    with pytest.raises(WorkerCrashedError) as excinfo:
        client.wait(handle)
    assert excinfo.value.kind == "_test_crash"
    assert client.stats.crashes >= 1
    # The dead slot was respawned and the pool keeps working.
    assert client.pool.respawns > respawns_before
    out, _ = client.wait(client.submit("_test_echo", [np.arange(5)], {}))
    np.testing.assert_array_equal(out[0], np.arange(5))


def test_crash_retry_budget_is_bounded():
    client = make_client(max_retries=2)
    handle = client.submit("_test_crash", [], {})
    with pytest.raises(WorkerCrashedError) as excinfo:
        client.wait(handle)
    assert excinfo.value.retries == 2
    assert client.stats.retries == 2
    assert client.stats.crashes == 3  # initial attempt + 2 retries


# -- the engine does not use the transport ----------------------------------
def test_engine_accepts_parallel_config_and_starts_no_pool(catalog):
    shutdown_pools()  # the pools the tests above left running
    plain = AccordionEngine(catalog)
    rows = plain.execute(QUERIES["Q18"]).rows
    engine = AccordionEngine(
        catalog, config=EngineConfig().with_parallelism(workers=2)
    )
    assert engine.execute(QUERIES["Q18"]).rows == rows
    assert engine.kernel.events_processed == plain.kernel.events_processed
    assert multiprocessing.active_children() == []
