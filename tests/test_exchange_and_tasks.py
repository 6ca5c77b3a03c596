"""Unit tests for the exchange client, task wiring, and driver lifecycle,
exercised through a minimal two-stage query."""

from bisect import bisect_right

import pytest

from repro import (
    AccordionEngine,
    EngineConfig,
    QueryOptions,
    shuffle_experiment_engine,
)
from repro.config import CostModel
from repro.data.tpch.queries import QUERIES
from repro.errors import SchedulingError
from repro.exec import DriverState, TaskId
from repro.exec.driver import _MLFQ_LEVELS

from conftest import slow_engine


@pytest.fixture()
def running_q3(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    engine.run_for(3.0)
    return engine, query


# -- task identity and structure -------------------------------------------
def test_task_id_formatting():
    assert str(TaskId(3, 2)) == "task3_2"
    assert TaskId(1, 0) < TaskId(1, 1) < TaskId(2, 0)


def test_task_pipelines_match_layout(running_q3):
    engine, query = running_q3
    join_task = query.stages[1].tasks[0]
    kinds = [p.spec.sink.kind for p in join_task.pipelines]
    assert kinds == ["local_exchange", "join_build", "task_output"]
    # Build pipelines run exactly one driver; tunable pipelines task_dop.
    assert len(join_task.pipelines[1].drivers) == 1
    engine.run_until_done(query, 1e6)


def test_task_info_contents(running_q3):
    """The task context (Figure 18) is plain attributes: samplers read
    them in place (``StageExecution.sample``), nothing builds a dict."""
    engine, query = running_q3
    scan_task = query.stages[2].tasks[0]
    assert str(scan_task.task_id) == "task2_0"
    assert scan_task.output_buffer.rows_out > 0
    assert scan_task.driver_count() >= 1 and not scan_task.exchange_clients
    join_task = query.stages[1].tasks[0]
    client = join_task.exchange_clients[2]
    assert client.rows_received > 0 and client.buffer.turn_up_counter >= 0
    sample = query.stages[1].sample()
    assert sample.rows_received >= client.rows_received
    assert sample.stage_dop == 1 and sample.task_dop == join_task.driver_count(
        join_task.tunable_pipeline.spec.id
    )
    engine.run_until_done(query, 1e6)


def test_unknown_pipeline_and_upstream_rejected(running_q3):
    engine, query = running_q3
    task = query.stages[1].tasks[0]
    with pytest.raises(SchedulingError):
        task.add_drivers(99, 1)
    with pytest.raises(SchedulingError):
        task.add_upstream(42, None)
    engine.run_until_done(query, 1e6)


# -- exchange client --------------------------------------------------------
def test_exchange_client_split_set(running_q3):
    engine, query = running_q3
    join_task = query.stages[1].tasks[0]
    probe_client = join_task.exchange_clients[2]
    assert len(probe_client.splits) == 1  # one upstream scan task
    assert not probe_client.finished
    engine.run_until_done(query, 1e6)
    assert probe_client.finished
    assert probe_client.rows_received > 0


def test_exchange_client_counts_bytes(running_q3):
    engine, query = running_q3
    engine.run_until_done(query, 1e6)
    join_task = query.stages[1].tasks[0]
    client = join_task.exchange_clients[2]
    assert client.bytes_received > 0


def test_exchange_client_duplicate_split_ignored(running_q3):
    engine, query = running_q3
    join_task = query.stages[1].tasks[0]
    client = join_task.exchange_clients[2]
    split = next(iter(client.splits.values())).split
    before = len(client.splits)
    client.add_split(split)
    assert len(client.splits) == before
    engine.run_until_done(query, 1e6)


# -- drivers ------------------------------------------------------------------
def test_driver_states_progress(running_q3):
    engine, query = running_q3
    states = {
        d.state
        for stage in query.stages.values()
        for task in stage.tasks
        for p in task.pipelines
        for d in p.drivers
    }
    assert states <= set(DriverState)
    engine.run_until_done(query, 1e6)
    final_states = {
        d.state
        for stage in query.stages.values()
        for task in stage.tasks
        for p in task.pipelines
        for d in p.drivers
    }
    assert final_states == {DriverState.FINISHED}


def test_driver_accounting(running_q3):
    engine, query = running_q3
    engine.run_until_done(query, 1e6)
    drivers = [
        d
        for stage in query.stages.values()
        for task in stage.tasks
        for p in task.pipelines
        for d in p.drivers
    ]
    assert all(d.quanta > 0 for d in drivers)
    assert all(d.cpu_time > 0 for d in drivers)


def test_mlfq_priority_grows_with_cpu_time(running_q3):
    engine, query = running_q3
    engine.run_until_done(query, 1e6)
    drivers = [
        d
        for stage in query.stages.values()
        for task in stage.tasks
        for p in task.pipelines
        for d in p.drivers
    ]
    heavy = max(drivers, key=lambda d: d.cpu_time)
    assert heavy._level >= 1.0  # long-running drivers sink levels
    # The cached level is the one the thresholds give.
    for d in drivers:
        assert d._level == float(bisect_right(_MLFQ_LEVELS, d.cpu_time))


# -- node accounting ---------------------------------------------------------
def test_node_task_counts_return_to_zero(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    engine.run_for(1.0)
    assert any(n.task_count > 0 for n in engine.cluster.compute + engine.cluster.storage)
    engine.run_until_done(query, 1e6)
    assert all(n.task_count == 0 for n in engine.cluster.compute + engine.cluster.storage)


def test_cpu_work_happened_on_multiple_nodes(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(initial_stage_dop=3))
    engine.run_until_done(query, 1e6)
    busy_nodes = [
        n
        for n in engine.cluster.compute + engine.cluster.storage
        if n.cpu.busy_core_seconds() > 0
    ]
    assert len(busy_nodes) >= 3


def test_shuffle_stage_query_never_over_grants_a_core():
    """QSHUFFLE in the Figure 28 setup.  A driver quantum that frees
    buffer space wakes a co-located driver from inside ``CpuPool._grant``;
    when the core being granted was not yet counted, the nested grant
    handed it out twice, a second driver of the same task ran inside the
    first one's quantum, and one split was fetched twice (the second
    commit found no batch)."""

    def run(**shuffle_stage):
        engine = shuffle_experiment_engine()
        query = engine.submit(
            QUERIES["QSHUFFLE"],
            QueryOptions(
                join_distribution="partitioned",
                scan_stage_dop=2,
                initial_task_dop=6,
                **shuffle_stage,
            ),
        )
        pools = [node.cpu for node in engine.cluster.all_nodes()]
        over = set()

        def check() -> bool:
            over.update(p.name for p in pools if p.busy > p.cores)
            return query.finished

        engine.kernel.run(stop_when=check, max_events=2_000_000)
        return query.result().rows, over

    rows, over = run(
        shuffle_stage_tables=frozenset({"orders"}), stage_dops={1: 10, 2: 1}
    )
    plain_rows, plain_over = run(stage_dops={1: 10})
    assert rows == plain_rows
    assert not over and not plain_over


# -- scheduler placement ------------------------------------------------------
def test_scan_tasks_placed_on_storage_nodes(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(scan_stage_dop=2))
    for stage in query.stages.values():
        for task in stage.tasks:
            if stage.fragment.is_source:
                assert task.node.role == "storage"
            else:
                assert task.node.role == "compute"
    engine.run_until_done(query, 1e6)


def test_intermediate_tasks_balanced_across_compute(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(initial_stage_dop=4))
    nodes = [t.node.id for t in query.stages[1].tasks]
    assert len(set(nodes)) >= 3  # least-loaded placement spreads tasks
    engine.run_until_done(query, 1e6)
