"""Tests for the QueryHandle public API: results, state, cancel/wait,
and the removal of the pre-handle entry points."""

import pytest

from repro import (
    AccordionEngine,
    EngineConfig,
    QueryCancelledError,
    QueryFailedError,
    QueryHandle,
    QueryRejectedError,
    QueryResult,
    TPCH_QUERIES,
)
from repro.obs import render_fault_report

from conftest import make_engine, slow_engine

COUNT_SQL = "select count(*) from lineitem"


# -- the handle itself -------------------------------------------------------
def test_submit_returns_handle(engine):
    handle = engine.submit(COUNT_SQL)
    assert isinstance(handle, QueryHandle)
    assert not handle.finished
    assert handle.sql == COUNT_SQL
    assert f"id={handle.id}" in repr(handle)

    result = handle.result()
    assert isinstance(result, QueryResult)
    assert result.num_rows == 1
    assert result.columns and result.rows
    assert handle.finished and handle.succeeded and not handle.failed
    assert result.elapsed_seconds == handle.elapsed > 0
    assert handle.initialization_seconds > 0


def test_result_is_idempotent(engine):
    handle = engine.submit(COUNT_SQL)
    assert handle.result().rows == handle.result().rows


def test_execute_shortcut_matches_submit(engine):
    assert engine.execute(COUNT_SQL).rows == engine.submit(COUNT_SQL).result().rows


def test_handle_delegates_execution_internals(engine):
    handle = engine.submit(COUNT_SQL)
    handle.result()
    # Attribute delegation keeps the runtime internals reachable.
    assert handle.stages is handle.execution.stages
    assert handle.tracker is handle.execution.tracker
    assert handle.fault_history() == []


def test_handle_progress_and_describe(engine):
    handle = engine.submit(COUNT_SQL)
    handle.result()
    progress = handle.progress()
    assert progress and all(p == pytest.approx(1.0) for p in progress.values())
    assert "stage 0" in handle.describe()
    assert "100.0%" in handle.progress_bars()


def test_tuning_property_is_cached(catalog):
    engine = slow_engine(catalog)
    handle = engine.submit(TPCH_QUERIES["Q3"])
    assert handle.tuning is handle.tuning
    engine.run_until(2.0)
    assert handle.tuning.ap(1, 3).accepted
    handle.result()


def test_fault_report_from_handle(engine):
    handle = engine.submit(COUNT_SQL)
    handle.result()
    report = handle.fault_report()
    assert "rpc_requests" in report
    assert f"rpc_requests_q{handle.id}" in report


# -- state / wait / cancel ---------------------------------------------------
def test_handle_state_transitions(engine):
    handle = engine.submit(COUNT_SQL)
    assert handle.state == "running"
    handle.result()
    assert handle.state == "finished"
    assert not handle.cancelled


def test_wait_with_timeout_returns_progress(catalog):
    engine = slow_engine(catalog)
    handle = engine.submit(TPCH_QUERIES["Q3"])
    assert handle.wait(timeout=0.5) is False
    assert handle.state == "running"
    assert handle.wait() is True
    assert handle.succeeded
    assert handle.result().num_rows > 0


def test_cancel_running_query(catalog):
    engine = slow_engine(catalog)
    handle = engine.submit(TPCH_QUERIES["Q3"])
    engine.run_until(2.0)
    handle.cancel("changed my mind")
    assert handle.state == "cancelled"
    assert handle.cancelled and handle.finished and not handle.succeeded
    with pytest.raises(QueryCancelledError, match="changed my mind"):
        handle.result()
    # Cancelling again is a no-op; the sim keeps running cleanly.
    handle.cancel()
    engine.run_for(5.0)
    assert handle.wait(timeout=1.0) is True


def test_cancel_is_clean_teardown(catalog):
    """After a cancel, other queries on the same engine still work."""
    engine = slow_engine(catalog)
    victim = engine.submit(TPCH_QUERIES["Q3"])
    engine.run_until(1.0)
    victim.cancel()
    survivor = engine.submit(COUNT_SQL)
    assert survivor.result().num_rows == 1


# -- one lifecycle, whichever way the query is served -------------------------
def _unshared(catalog):
    return make_engine(catalog).submit(COUNT_SQL)


def _sharing_engine(catalog):
    return AccordionEngine(catalog, config=EngineConfig().with_sharing())


def _shared(catalog, index):
    return _sharing_engine(catalog).submit_many([COUNT_SQL, COUNT_SQL])[index]


def _cached(catalog):
    engine = _sharing_engine(catalog)
    engine.execute(COUNT_SQL)
    return engine.submit(COUNT_SQL)


def _queued(catalog, **workload):
    config = EngineConfig().with_workload(max_concurrent_queries=1, **workload)
    session = slow_engine(catalog, workload=config.workload).session("bi")
    session.submit(TPCH_QUERIES["Q3"])
    return session.submit(COUNT_SQL)


def _queued_then_cancelled(catalog):
    handle = _queued(catalog)
    handle.cancel("user closed the tab")
    return handle


def _failed(catalog):
    handle = slow_engine(catalog).submit(TPCH_QUERIES["Q3"])
    handle.engine.run_until(1.0)
    handle.execution.fail(QueryFailedError("node exploded"))
    return handle


LIFECYCLES = {
    # case: (submit, route, terminal state, error type)
    "unshared": (_unshared, "unshared", "finished", None),
    "carrier": (lambda c: _shared(c, 0), "carrier", "finished", None),
    "folded": (lambda c: _shared(c, 1), "folded", "finished", None),
    "cached": (_cached, "cached", "finished", None),
    "queued-then-cancelled": (
        _queued_then_cancelled, "unshared", "cancelled", QueryCancelledError,
    ),
    "rejected": (
        lambda c: _queued(c, queue_timeout=0.001),
        "unshared", "rejected", QueryRejectedError,
    ),
    "failed": (_failed, "unshared", "failed", QueryFailedError),
}


@pytest.mark.parametrize("case", LIFECYCLES)
def test_lifecycle_parity(catalog, case):
    """Every route ends in the same handle contract."""
    submit, route, state, error_type = LIFECYCLES[case]
    handle = submit(catalog)
    fired = []
    handle.on_done(fired.append)
    assert handle.wait() is True
    assert fired == [handle]
    handle.on_done(fired.append)  # already terminal: fires at once
    assert fired == [handle, handle]

    assert handle.state == state and state in repr(handle)
    assert handle.sharing.role == route
    assert handle.finished
    assert handle.succeeded == (state == "finished")
    assert handle.cancelled == (state == "cancelled")
    assert handle.failed == (state in ("failed", "rejected"))
    if error_type is None:
        assert handle.error is None
        result = handle.result()
        assert result.num_rows == 1
        assert result.elapsed_seconds == handle.elapsed >= 0
    else:
        assert type(handle.error) is error_type
        with pytest.raises(error_type):
            handle.result()
    # Never-admitted queries have no elapsed time; the clock of every
    # terminal query has stopped.
    elapsed = handle.elapsed
    assert (elapsed == 0.0) == (handle.id is None or route == "cached")
    handle.engine.run_for(1.0)
    assert handle.elapsed == elapsed and fired == [handle, handle]


# -- removed pre-handle entry points -----------------------------------------
def test_engine_elastic_is_removed(catalog):
    engine = slow_engine(catalog)
    handle = engine.submit(TPCH_QUERIES["Q3"])
    with pytest.raises(AttributeError):
        engine.elastic(handle)
    assert handle.tuning is handle.tuning  # the replacement
    handle.result()


def test_engine_result_of_is_removed(engine):
    handle = engine.submit(COUNT_SQL)
    with pytest.raises(AttributeError):
        engine.result_of(handle)
    assert handle.result().num_rows == 1


def test_engine_ctor_placement_kwargs_are_removed(catalog):
    with pytest.raises(TypeError):
        AccordionEngine(catalog, node_overrides={"orders": [0, 1]})


def test_placement_lives_in_config(catalog):
    cluster = EngineConfig().cluster.with_placement(node_overrides={"orders": [0, 1]})
    config = EngineConfig().with_cluster(
        node_overrides=cluster.node_overrides, combined=cluster.combined
    )
    engine = AccordionEngine(catalog, config=config)
    splits = engine.split_layout.splits("orders")
    assert {split.storage_node for split in splits} <= {0, 1}
    assert engine.execute(COUNT_SQL).num_rows == 1


def test_render_fault_report_rejects_non_handle(engine):
    handle = engine.submit(COUNT_SQL)
    handle.result()
    assert "rpc_requests" in render_fault_report(handle)
    with pytest.raises(TypeError):
        render_fault_report(engine)
    with pytest.raises(TypeError):
        render_fault_report(object())
