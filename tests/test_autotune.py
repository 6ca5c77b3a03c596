"""Tests for the auto-tuning layer: the sampler and what is read from it
(progress, bottlenecks, what-if), the tuner's check step, the auto-tuner,
the DOP planner."""

import pytest

from repro import ClusterConfig, Plan, NodeCrash, QueryOptions, TaskCrash
import repro.autotune.tuner as tuner_module
from repro.autotune.planner import DopPlanner
from repro.autotune.tuner import tuning_units
from repro.cluster.stage import StageSample
from repro.data.tpch.queries import QUERIES
from repro.errors import TuningRejected
from repro.obs.throughput import Sampler, Snapshot

from conftest import builds_ready, norm_rows, run_until_cond, slow_engine


def start_q3(catalog, **opts):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"], QueryOptions(**opts) if opts else None)
    return engine, query, query.tuning


# -- collector -----------------------------------------------------------------
def test_collector_samples_accumulate(catalog):
    engine, query, elastic = start_q3(catalog)
    engine.run_for(3.0)
    samples = elastic.collector.samples
    assert len(samples) >= 5
    latest = samples[-1]
    assert set(latest.stages) == set(query.stages)
    assert latest.stages[2].scan_rows_remaining is not None
    assert any(v > 0 for v in latest.cpu_utilization.values())
    engine.run_until_done(query, 1e6)


def test_collector_stops_after_query(catalog):
    engine, query, elastic = start_q3(catalog)
    engine.run_until_done(query, 1e6)
    count = len(elastic.collector.samples)
    engine.run_for(5.0)
    assert len(elastic.collector.samples) == count


def test_scan_consume_rate_positive_while_running(catalog):
    engine, query, elastic = start_q3(catalog)
    # The probe-side scan only streams once S1's hash table is built.
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(3.0)
    assert elastic.collector.scan_consume_rate(2) > 0
    engine.run_until_done(query, 1e6)


def test_cpu_headroom_bounds(catalog):
    engine, query, elastic = start_q3(catalog)
    engine.run_for(2.0)
    used, idle = elastic.collector.cluster_cpu_headroom()
    assert 0.0 <= used <= 1.0
    assert 0.0 <= idle <= 1.0
    assert used + idle == pytest.approx(1.0)
    engine.run_until_done(query, 1e6)


# -- sampling oracle ---------------------------------------------------------
# ``StageExecution.sample`` reads a stage in one pass and the sampler keeps
# its node list between samples.  The recount below is the reference: one
# plain expression per field over ``stage.tasks``, and the node dict rebuilt
# per sample.  It stays in the test; ``src/`` has only the one-pass read.
def recount_stage(stage) -> StageSample:
    tasks = stage.tasks
    active = [t for t in stage.task_groups[-1] if not t.finished]
    clients = [c for t in tasks for c in t.exchange_clients.values()]
    feed = stage.split_feed
    return StageSample(
        rows_out=(
            stage.query.result_rows
            if stage.id == 0
            else sum(t.output_buffer.rows_out for t in tasks)
        ),
        rows_received=sum(c.rows_received for c in clients),
        exchange_turn_up=sum(c.buffer.turn_up_counter for c in clients),
        stage_dop=len(active) if tasks else 0,
        task_dop=max((t.tunable_pipeline.active_drivers for t in active), default=0),
        finished=bool(tasks) and all(t.finished for t in tasks),
        scan_rows_remaining=feed.rows_remaining if feed else None,
        scan_rows_total=feed.total_rows if feed else None,
        max_build_seconds=max(
            (b.build_seconds for t in tasks for b in t.bridges), default=0.0
        ),
    )


class SamplingOracle:
    """Checks every snapshot of both samplers — the tuning collector's and
    the throughput tracker's — against the recount, at the instant it is
    taken."""

    def __init__(self, monkeypatch):
        self.snapshots = self.points = 0
        self.marks: dict[str, tuple[float, float, float]] = {}
        sample = Sampler._sample
        oracle = self

        def checked(sampler):
            sample(sampler)
            oracle.check_snapshot(sampler)

        monkeypatch.setattr(Sampler, "_sample", checked)

    def check_snapshot(self, sampler) -> None:
        snap, now = sampler.samples[-1], sampler.kernel.now
        expected = Snapshot(now)
        for stage_id, stage in sampler.query.stages.items():
            expected.stages[stage_id] = recount_stage(stage)
        if sampler.cluster is None:
            assert snap == expected
            self.points += 1
            return
        nodes = {}
        for node in sampler.cluster.compute + sampler.cluster.storage:
            nodes[f"{node.role}{node.id}"] = node
        for key, node in nodes.items():
            busy, nic_busy = node.cpu.busy_core_seconds(), node.nic.busy_seconds()
            if key in self.marks:
                prev_busy, prev_time, prev_nic = self.marks[key]
                if now > prev_time:
                    dt = now - prev_time
                    expected.cpu_utilization[key] = (busy - prev_busy) / (
                        dt * node.cpu.cores
                    )
                    expected.nic_utilization[key] = min(1.0, (nic_busy - prev_nic) / dt)
            self.marks[key] = (busy, now, nic_busy)
        assert snap == expected
        # Same node order too: the headroom is a float sum over it.
        assert list(snap.cpu_utilization) == list(expected.cpu_utilization)
        self.snapshots += 1


def test_samples_equal_a_recount_through_ac_ap_rp(catalog, monkeypatch):
    oracle = SamplingOracle(monkeypatch)
    engine, query, elastic = start_q3(catalog)
    engine.run_until(2.0)
    elastic.ac(1, 3)
    engine.run_until(5.0)
    elastic.ap(1, 3)
    engine.run_until(9.0)
    elastic.rp(1, 1)
    engine.run_until_done(query, 1e6)
    stage = query.stages[1]
    assert len(stage.tasks) == 3 and len(elastic.collector.samples) > 10
    assert oracle.snapshots > 20 and oracle.points > 10


def test_samples_equal_a_recount_through_a_group_switch(catalog, monkeypatch):
    """Two task groups: the DOPs count the newest one only, which the
    one-pass read takes to be the tail of ``stage.tasks``."""
    oracle = SamplingOracle(monkeypatch)
    engine = slow_engine(catalog)
    query = engine.submit(
        QUERIES["Q2J"], QueryOptions(join_distribution="partitioned", initial_stage_dop=2)
    )
    run_until_cond(engine, builds_ready(query, 1))
    query.tuning.ap(1, 4)
    engine.run_until_done(query, 1e6)
    assert [len(group) for group in query.stages[1].task_groups] == [2, 4]
    assert oracle.snapshots > 20 and oracle.points > 10


def test_samples_equal_a_recount_through_crash_join_and_drain(catalog, monkeypatch):
    """Where a one-pass or cached read goes stale: crashed tasks stay in
    ``stage.tasks`` next to their respawns, a joining node must appear in
    the utilization dicts, a draining one must stay."""
    oracle = SamplingOracle(monkeypatch)
    engine = slow_engine(
        catalog, cluster=ClusterConfig(compute_nodes=3, storage_nodes=2, combined=True)
    )
    engine.apply(Plan(events=(NodeCrash(at=4.0, node="compute2"),)))
    query = engine.submit(QUERIES["Q3"], QueryOptions(initial_stage_dop=3))
    collector = query.tuning.collector
    engine.membership.join(1)
    engine.run_until(8.0)
    assert engine.decisions.count("recovery", "respawn") > 0
    assert "compute3" in collector.samples[-1].cpu_utilization
    engine.membership.drain(engine.cluster.node_by_name("compute1"), timeout=200.0)
    engine.run_until_done(query, 1e6)
    assert any(t.crashed for s in query.stages.values() for t in s.tasks)
    assert list(collector.samples[-1].cpu_utilization) == [
        "compute0", "compute1", "compute2", "compute3",
    ]
    assert oracle.snapshots > 20 and oracle.points > 10


def run_recounting_every_event(engine, query) -> int:
    """Run ``query`` to the end, checking every stage's ``sample()``
    against the recount between every two events (a kept finished-stage
    reading is taken as early as it can be, and read at every later
    instant).  Returns how many stage readings were kept."""

    def check() -> bool:
        for stage in query.stages.values():
            assert stage.sample() == recount_stage(stage), (engine.now, stage.id)
        return query.finished

    engine.kernel.run(stop_when=check, max_events=2_000_000)
    return sum(stage._final is not None for stage in query.stages.values())


def test_samples_equal_a_recount_through_a_crash_before_a_build(catalog, monkeypatch):
    """S1's only task dies while it waits for its hash table: until the
    respawn the stage reads finished, but its build clock still runs, so
    no finished-stage reading may be kept."""
    oracle = SamplingOracle(monkeypatch)
    engine = slow_engine(catalog)
    engine.apply(Plan(events=(NodeCrash(at=4.0, node="compute1"),)))
    query = engine.submit(QUERIES["Q3"])
    assert query.tuning.collector.cluster is not None
    engine.run_until(4.0)
    assert not builds_ready(query, 1)()
    assert run_recounting_every_event(engine, query) >= 4
    stage = query.stages[1]
    assert stage.tasks[0].crashed and stage.tasks[0].bridges[0].ready_at is None
    assert len(stage.tasks) == 2 and not stage.tasks[1].crashed
    assert oracle.snapshots > 20 and oracle.points > 10


@pytest.mark.parametrize(
    "fault", [NodeCrash(at=20.0, node="storage0"), TaskCrash(at=20.0, stage=2)]
)
def test_samples_equal_a_recount_through_a_respawn_of_a_finished_stage(
    catalog, monkeypatch, fault
):
    """The lineitem scan's only task dies: the stage reads finished while
    the dead task's last quanta still land, then the respawn adds a task.
    The build-side scans beside it had finished for good and keep their
    readings."""
    oracle = SamplingOracle(monkeypatch)
    engine = slow_engine(catalog)
    engine.apply(Plan(events=(fault,)))
    query = engine.submit(QUERIES["Q3"])
    assert query.tuning.collector.cluster is not None
    engine.run_until(19.0)
    assert query.stages[4].finished and not query.stages[2].finished
    kept = query.stages[4].sample()
    assert run_recounting_every_event(engine, query) >= 4
    assert query.stages[4].sample() is kept
    assert [t.crashed for t in query.stages[2].tasks] == [True, False]
    assert engine.decisions.count("recovery", "respawn") == 1
    assert oracle.snapshots > 20 and oracle.points > 10


def test_samples_equal_a_recount_while_a_dead_tasks_last_quantum_lands(catalog):
    """S3's only task dies with its hash table built and a quantum on a
    core: the stage reads finished, then that quantum still delivers its
    rows (crashes are quantum-atomic), and only then does recovery give
    up on the query (its output was already fetched)."""
    engine = slow_engine(catalog)
    engine.apply(Plan(events=(TaskCrash(at=5.0, stage=3),)))
    query = engine.submit(QUERIES["Q3"])
    engine.run_until(5.0)
    stage = query.stages[3]
    assert stage.sample().finished and stage.tasks[0].inflight_quanta
    rows_at_crash = stage.tasks[0].output_buffer.rows_out
    run_recounting_every_event(engine, query)
    assert stage.tasks[0].output_buffer.rows_out > rows_at_crash
    assert engine.decisions.count("recovery", "unrecoverable") == 1


# -- progress -----------------------------------------------------------------
def test_probe_scan_stage_follows_probe_chain(catalog):
    engine, query, _ = start_q3(catalog)
    probe_scan = query.plan.probe_scan
    assert probe_scan(1) == 2   # S1 <- lineitem scan
    assert probe_scan(3) == 4   # S3 <- orders scan
    assert probe_scan(0) == 2   # stage 0 via S1
    assert probe_scan(2) == 2   # a scan is its own indicator
    engine.run_until_done(query, 1e6)


def test_remaining_time_decreases(catalog):
    engine, query, elastic = start_q3(catalog)
    run_until_cond(engine, builds_ready(query, 1))
    # Let the streaming rate stabilise past the elastic-buffer ramp.
    engine.run_for(6.0)
    first = elastic.remaining_time(1)
    engine.run_for(6.0)
    second = elastic.remaining_time(1)
    assert first is not None and second is not None
    assert second < first
    engine.run_until_done(query, 1e6)


def test_remaining_time_zero_when_scan_done(catalog):
    engine, query, elastic = start_q3(catalog)
    engine.run_until_done(query, 1e6)
    assert elastic.remaining_time(1) == 0.0


# -- bottleneck localization -----------------------------------------------------
def test_bottleneck_found_while_running(catalog):
    engine, query, elastic = start_q3(catalog)
    engine.run_for(5.0)
    bottlenecks = elastic.bottlenecks()
    assert bottlenecks, "a DOP-1 query must have a computational bottleneck"
    assert all(b.kind in ("compute", "network") for b in bottlenecks)
    engine.run_until_done(query, 1e6)


def test_no_bottleneck_after_finish(catalog):
    engine, query, elastic = start_q3(catalog)
    engine.run_until_done(query, 1e6)
    engine.run_for(3.0)
    assert elastic.bottlenecks() == []


# -- what-if predictor -----------------------------------------------------------
def test_prediction_formula(catalog):
    engine, query, elastic = start_q3(catalog)
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(3.0)
    pred = elastic.estimate(1, 4)
    assert pred is not None
    assert pred.current_dop == 1
    expected = max(0.0, pred.t_remain - pred.t_tuning) / pred.n_f + pred.t_tuning
    assert pred.t_predicted == pytest.approx(expected)
    assert pred.n_f <= 4.0
    engine.run_until_done(query, 1e6)


def test_prediction_accuracy_shape(catalog):
    """The paper's Figure 29 check: predicted stage completion must land
    near the actual one."""
    engine, query, elastic = start_q3(catalog, initial_stage_dop=2, initial_task_dop=2)
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(3.0)
    pred = elastic.estimate(1, 6)
    if pred is None:
        pytest.skip("no rate observable yet at this scale")
    elastic.ap(1, 6)
    predicted_finish = engine.now + pred.t_predicted
    engine.run_until_done(query, 1e6)
    actual_finish = max(t.finished_at for t in query.stages[1].tasks)
    assert actual_finish == pytest.approx(predicted_finish, rel=0.6)


def test_dop_time_list_monotone_headroom(catalog):
    engine, query, elastic = start_q3(catalog)
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(3.0)
    predictions = [elastic.estimate(1, dop) for dop in (1, 2, 4, 8)]
    assert None not in predictions
    times = [p.t_predicted for p in predictions]
    assert times[0] >= times[-1]  # more DOP never predicts slower
    engine.run_until_done(query, 1e6)


def test_speedup_capped_by_cpu_headroom(catalog):
    engine, query, elastic = start_q3(catalog)
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(3.0)
    pred = elastic.estimate(1, 1000)
    assert pred is not None
    assert pred.n_f < 1000  # the paper's "no 1000x requests" guard
    engine.run_until_done(query, 1e6)


# -- the tuner's check step (behaviours not covered in test_elasticity) ----------
def test_filter_rejects_late_join_tuning(catalog):
    engine, query, elastic = start_q3(catalog)
    engine.run_until(2.0)
    elastic.ap(1, 4)  # speeds the query up; builds Tbuild history
    run_until_cond(
        engine,
        lambda: (r := elastic.remaining_time(1)) is not None
        and r < query.stages[1].max_build_seconds(),
    )
    with pytest.raises(TuningRejected) as err:
        elastic.ap(1, 8)
    assert err.value.reason == "remaining-lt-build"
    engine.run_until_done(query, 1e6)


def test_filter_records_rejections_with_marker(catalog):
    engine, query, elastic = start_q3(catalog)
    engine.run_until_done(query, 1e6)
    with pytest.raises(TuningRejected):
        elastic.ap(1, 2)
    assert query.tracker.markers_of("rejected")


# -- auto tuner -----------------------------------------------------------------
def test_tuning_units_map_knobs_to_indicators(catalog):
    engine, query, _ = start_q3(catalog)
    units = tuning_units(query)
    mapping = {u.knob_stage: u.indicator_stage for u in units}
    assert mapping[1] == 2
    assert mapping[3] == 4
    assert 0 not in mapping  # fixed stage is not a knob
    engine.run_until_done(query, 1e6)


def test_tune_once_meets_deadline(catalog):
    baseline_engine, baseline_query, _ = start_q3(catalog)
    baseline_engine.run_until_done(baseline_query, 1e6)
    untuned = baseline_query.elapsed

    engine, query, elastic = start_q3(catalog)
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(3.0)
    result = elastic.tune_once(1, untuned / 3)
    assert result is not None and result.accepted
    engine.run_until_done(query, 1e6)
    assert query.elapsed < untuned


def test_monitor_scales_down_when_ahead(catalog):
    engine, query, elastic = start_q3(catalog, initial_stage_dop=3, initial_task_dop=2)
    elastic.set_constraint(1, 1000.0)  # generous deadline -> shed resources
    elastic.start_monitor(period=1.0)
    engine.run_for(6.0)
    reductions = [
        r for r in elastic.tuner.applied if r.request.target < 3
    ]
    assert reductions, "monitor should reduce DOP when far ahead of schedule"
    engine.run_until_done(query, 1e6)
    assert query.elapsed < 1000.0


def test_monitor_scales_up_when_behind(catalog):
    engine, query, elastic = start_q3(catalog)
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(2.0)
    elastic.set_constraint(1, 4.0)  # aggressive deadline
    elastic.start_monitor(period=1.0)
    engine.run_for(4.0)
    increases = [r for r in elastic.tuner.applied if r.request.target > 1]
    assert increases, "monitor should scale up for a tight deadline"
    engine.run_until_done(query, 1e6)


def test_monitor_constraint_change_discards_plan(catalog):
    engine, query, elastic = start_q3(catalog)
    elastic.set_constraint(1, 500.0)
    elastic.start_monitor(period=1.0)
    engine.run_for(2.0)
    elastic.set_constraint(1, 3.0)  # mid-flight re-constraint (Fig 30b)
    markers = query.tracker.markers_of("constraint")
    assert len(markers) == 2
    engine.run_for(3.0)
    assert any(r.request.target > 1 for r in elastic.tuner.applied)
    engine.run_until_done(query, 1e6)


def test_monitor_restart_runs_one_tick_loop(catalog, monkeypatch):
    """``stop_monitor`` cancels the pending tick, so a restart does not
    leave the old loop running beside the new one."""
    engine, query, elastic = start_q3(catalog)
    ticks = []
    units = tuner_module.tuning_units

    def counted(q):
        ticks.append(engine.now)
        return units(q)

    monkeypatch.setattr(tuner_module, "tuning_units", counted)
    elastic.start_monitor(period=1.0)
    engine.run_until(0.2)
    elastic.stop_monitor()
    elastic.start_monitor(period=1.0)
    engine.run_until(4.5)
    assert ticks == pytest.approx([1.2, 2.2, 3.2, 4.2])
    elastic.stop_monitor()
    engine.run_until(6.5)
    assert len(ticks) == 4
    engine.run_until_done(query, 1e6)


# -- DOP planner -----------------------------------------------------------------
def test_dop_planner_splits_deadline(catalog, engine):
    plan = engine.coordinator.plan_sql(QUERIES["Q3"], QueryOptions())
    planner = DopPlanner(catalog, engine.config)
    result = planner.plan(plan, deadline_seconds=200.0)
    assert set(result.scan_deadlines) == {2, 4}
    # Execution-dependency order: the build-side scan deadline comes first.
    assert result.scan_deadlines[4] < result.scan_deadlines[2]
    assert result.scan_deadlines[2] <= 200.0 * 1.01
    assert result.initial_stage_dop >= 1
    assert result.initial_task_dop >= 1


def test_dop_planner_tighter_deadline_more_dop(catalog, engine):
    plan = engine.coordinator.plan_sql(QUERIES["Q3"], QueryOptions())
    planner = DopPlanner(catalog, engine.config)
    loose = planner.plan(plan, deadline_seconds=1e5)
    tight = planner.plan(plan, deadline_seconds=0.001)
    assert tight.initial_stage_dop >= loose.initial_stage_dop
