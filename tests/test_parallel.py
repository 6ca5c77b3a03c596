"""Unit tests for the worker-pool offload backend (``repro.parallel``).

Covers the layers below the operators: the shared-memory array codec,
job dispatch and result decoding, structured failure semantics (remote
exceptions vs worker death vs retry exhaustion), and the workers=1
pool-vs-inline equivalence the determinism story rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import norm_rows

from repro import AccordionEngine, EngineConfig
from repro.config import ParallelConfig
from repro.data.tpch.queries import QUERIES
from repro.errors import WorkerCrashedError, WorkerJobError
from repro.pages import DictColumn
from repro.parallel import OffloadClient
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


def test_codec_none_round_trips():
    # NULL strings (CASE without ELSE) are tagged in the dictionary's
    # length array, so offloaded jobs see and return them unchanged.
    out = roundtrip([DictColumn.from_values([None, "a", None, ""])])
    assert out[0].tolist() == [None, "a", None, ""]


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


def test_chunk_bounds_cover_rows_exactly():
    client = make_client(workers=4, min_chunk_rows=10)
    for rows in (1, 9, 10, 11, 39, 40, 41, 1000):
        bounds = client.chunk_bounds(rows)
        assert bounds[0][0] == 0 and bounds[-1][1] == rows
        assert all(a2 == b1 for (_, b1), (a2, _) in zip(bounds, bounds[1:]))
        assert len(bounds) <= client.workers
        if len(bounds) > 1:
            assert all(end - start >= 10 for start, end in bounds)


def test_chunk_bounds_are_deterministic():
    client = make_client(workers=3)
    assert client.chunk_bounds(10_000) == client.chunk_bounds(10_000)


# -- workers=1 pool-vs-inline equivalence ----------------------------------
def run_query(catalog, sql, workers):
    config = EngineConfig(page_row_limit=256)
    if workers:
        config = config.with_parallelism(
            workers=workers, min_offload_rows=1, min_chunk_rows=1
        )
    engine = AccordionEngine(catalog, config=config)
    result = engine.execute(sql, max_virtual_seconds=1e6)
    jobs = engine.offload.stats.jobs if engine.offload is not None else 0
    return {
        "rows": norm_rows(result.rows),
        "virtual_time": engine.now,
        "events": engine.kernel.events_processed,
    }, jobs


def test_single_worker_pool_matches_inline(catalog):
    serial, serial_jobs = run_query(catalog, QUERIES["Q3"], workers=0)
    pooled, pooled_jobs = run_query(catalog, QUERIES["Q3"], workers=1)
    assert serial_jobs == 0
    assert pooled_jobs > 0, "offload must actually engage at workers=1"
    assert pooled == serial


def test_q9_two_worker_pool_matches_inline(catalog):
    """Q9 (string LIKE filter, five joins) is unrecoverable under the
    crash schedule of test_parallel_identity, so it is pinned fault-free."""
    serial, _ = run_query(catalog, QUERIES["Q9"], workers=0)
    pooled, pooled_jobs = run_query(catalog, QUERIES["Q9"], workers=2)
    assert pooled_jobs > 0, "offload must actually engage"
    assert pooled == serial


# -- side-band telemetry ----------------------------------------------------
def test_offload_counters_are_opt_in_side_band(catalog):
    from repro.obs import offload_counters

    serial = AccordionEngine(catalog, config=EngineConfig(page_row_limit=256))
    serial.execute(QUERIES["Q3"], max_virtual_seconds=1e6)
    assert offload_counters(serial) == []

    config = EngineConfig(page_row_limit=256).with_parallelism(
        workers=2, min_offload_rows=1, min_chunk_rows=1
    )
    engine = AccordionEngine(catalog, config=config)
    engine.execute(QUERIES["Q3"], max_virtual_seconds=1e6)
    events = offload_counters(engine)
    assert events, "parallel engine must expose counter events"
    names = {e["name"] for e in events}
    assert "offload jobs" in names
    for event in events:
        assert event["ph"] == "C"
        assert event["ts"] == engine.now * 1e6
        (value,) = event["args"].values()
        assert isinstance(value, (int, float))
    # Snapshot exposes the derived queue-wait/utilization metrics too.
    snapshot = engine.offload.stats.snapshot()
    assert "wait_ms_per_job" in snapshot and "utilization" in snapshot
