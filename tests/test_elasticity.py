"""Tests for intra-query runtime elasticity: intra-task tuning, intra-stage
tuning, DOP switching — correctness and mechanics."""

import pytest

from repro import QueryOptions
from repro.data.tpch.queries import QUERIES
from repro.errors import TuningRejected

from conftest import builds_ready, norm_rows, run_until_cond, slow_engine


def finish(engine, query):
    engine.run_until_done(query, 1e6)
    return query.result().rows


def baseline_rows(catalog, sql, options=None):
    eng = slow_engine(catalog)
    return finish(eng, eng.submit(sql, options))


# -- intra-task tuning (Section 4.3) ----------------------------------------
def test_intra_task_increase_preserves_results_and_speeds_up(catalog):
    base_engine = slow_engine(catalog)
    base_query = base_engine.submit(QUERIES["Q3"])
    base_rows = finish(base_engine, base_query)

    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    engine.run_until(2.0)
    elastic.ac(3, 3)
    elastic.ac(1, 4)
    rows = finish(engine, query)
    assert norm_rows(rows) == norm_rows(base_rows)
    assert query.elapsed < base_query.elapsed


def test_intra_task_increase_spawns_drivers(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    engine.run_until(2.0)
    before = query.stages[1].task_dop
    result = elastic.ac(1, before + 3)
    assert result.accepted
    assert query.stages[1].task_dop == before + 3
    finish(engine, query)


def test_intra_task_decrease_keeps_at_least_one_driver(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(initial_task_dop=4))
    elastic = query.tuning
    engine.run_until(2.0)
    elastic.ac(1, 1)
    engine.run_for(2.0)
    assert query.stages[1].task_dop >= 1
    rows = finish(engine, query)
    assert len(rows) == 10


def test_task_dop_noop_rejected(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(initial_task_dop=2))
    elastic = query.tuning
    engine.run_until(1.0)
    with pytest.raises(TuningRejected):
        elastic.ac(1, 2)
    finish(engine, query)


# -- intra-stage tuning (Section 4.4) -----------------------------------------
def test_stage_dop_increase_broadcast_join(catalog):
    base = baseline_rows(catalog, QUERIES["Q3"])
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    engine.run_until(1.5)
    result = elastic.ap(1, 3)
    assert result.accepted
    assert query.stages[1].stage_dop == 3
    rows = finish(engine, query)
    assert norm_rows(rows) == norm_rows(base)


def test_stage_dop_increase_rebuilds_hash_tables(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    engine.run_until(1.5)
    elastic.ap(1, 3)
    run_until_cond(engine, builds_ready(query, 1))
    new_tasks = query.stages[1].tasks[1:]
    assert len(new_tasks) == 2
    assert all(b.ready for t in new_tasks for b in t.bridges)
    markers = query.tracker.markers_of("build_ready")
    assert len(markers) >= 2
    finish(engine, query)


def test_stage_dop_decrease_scan_stage(catalog):
    base = baseline_rows(catalog, QUERIES["Q1"], QueryOptions(stage_dops={1: 3}))
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q1"], QueryOptions(stage_dops={1: 3}))
    elastic = query.tuning
    engine.run_until(2.0)
    elastic.rp(1, 1)
    engine.run_for(3.0)
    assert query.stages[1].stage_dop == 1
    rows = finish(engine, query)
    assert norm_rows(rows) == norm_rows(base)


def test_stage_dop_decrease_join_stage(catalog):
    base = baseline_rows(catalog, QUERIES["Q3"], QueryOptions(initial_stage_dop=3))
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(initial_stage_dop=3))
    elastic = query.tuning
    engine.run_until(2.0)
    elastic.rp(1, 1)
    engine.run_for(3.0)
    assert query.stages[1].stage_dop == 1
    rows = finish(engine, query)
    assert norm_rows(rows) == norm_rows(base)


def test_new_task_address_propagates_to_parents(catalog):
    """Figure 14 step 2: parent tasks learn the new task's address."""
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    engine.run_until(1.5)
    elastic.ap(1, 2)
    engine.run_for(1.0)
    parent_task = query.stages[0].tasks[0]
    client = parent_task.exchange_clients[1]
    upstream_ids = {split.upstream.task_id.seq for split in (s.split for s in client.splits.values())}
    assert upstream_ids == {0, 1}
    finish(engine, query)


def test_tuning_finished_stage_rejected(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    engine.run_until_done(query, 1e6)
    with pytest.raises(TuningRejected):
        elastic.ap(1, 4)
    assert query.tracker.markers_of("rejected")


def test_tuning_fixed_stage_rejected(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    engine.run_until(1.0)
    with pytest.raises(TuningRejected):
        elastic.ap(0, 4)  # stage 0 = final aggregation, pinned to 1
    finish(engine, query)


def test_tuning_markers_recorded(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    engine.run_until(1.5)
    elastic.ap(3, 2)
    tuning_markers = query.tracker.markers_of("tuning")
    assert len(tuning_markers) == 1
    assert tuning_markers[0].stage == 3
    finish(engine, query)


# -- DOP switching (Section 4.5) -----------------------------------------------
def q2j_options(dop=2):
    return QueryOptions(join_distribution="partitioned", initial_stage_dop=dop)


def test_dop_switch_preserves_results(catalog):
    base = baseline_rows(catalog, QUERIES["Q2J"], q2j_options())
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q2J"], q2j_options())
    elastic = query.tuning
    run_until_cond(engine, builds_ready(query, 1))
    result = elastic.ap(1, 4)
    rows = finish(engine, query)
    assert norm_rows(rows) == norm_rows(base)
    assert result.completed_at is not None
    assert result.shuffle_seconds >= 0
    assert result.build_seconds > 0


def test_dop_switch_creates_new_task_group(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q2J"], q2j_options())
    elastic = query.tuning
    run_until_cond(engine, builds_ready(query, 1))
    elastic.ap(1, 4)
    stage = query.stages[1]
    assert len(stage.task_groups) == 2
    assert len(stage.task_groups[-1]) == 4
    engine.run_for(8.0)
    # Old group drains and closes; the new group carries the probe.
    old_group = stage.task_groups[0]
    assert all(t.finished for t in old_group)
    finish(engine, query)


def test_dop_switch_down(catalog):
    base = baseline_rows(catalog, QUERIES["Q2J"], q2j_options(3))
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q2J"], q2j_options(3))
    elastic = query.tuning
    run_until_cond(engine, builds_ready(query, 1))
    elastic.rp(1, 1)
    rows = finish(engine, query)
    assert norm_rows(rows) == norm_rows(base)


def test_double_switch(catalog):
    base = baseline_rows(catalog, QUERIES["Q2J"], q2j_options())
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q2J"], q2j_options())
    elastic = query.tuning
    run_until_cond(engine, builds_ready(query, 1))
    elastic.ap(1, 4)
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(1.0)
    try:
        elastic.ap(1, 6)
    except TuningRejected:
        pass  # near completion the filter may veto; results must still hold
    rows = finish(engine, query)
    assert norm_rows(rows) == norm_rows(base)


def test_probe_not_interrupted_during_switch(catalog):
    """The paper's key claim: hash rebuilding does not pause probing —
    the old task group keeps consuming probe rows until the new group's
    hash tables are ready and the switch completes."""
    from repro.exec.operators.join import HashJoinProbeOperator

    def rows_probed(tasks):
        total = 0
        for task in tasks:
            for runtime in task.pipelines:
                for driver in runtime.drivers:
                    for op in driver.transforms:
                        if isinstance(op, HashJoinProbeOperator):
                            total += op.rows_probed
        return total

    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q2J"], q2j_options())
    elastic = query.tuning
    run_until_cond(engine, builds_ready(query, 1))
    old_group = list(query.stages[1].active_group)
    probed_before = rows_probed(old_group)
    result = elastic.ap(1, 4)
    run_until_cond(engine, lambda: result.completed_at is not None)
    engine.run_for(0.5)  # let in-flight old-group quanta commit
    assert rows_probed(old_group) > probed_before  # old group kept probing
    assert not query.finished  # ...while the query was still running
    finish(engine, query)
