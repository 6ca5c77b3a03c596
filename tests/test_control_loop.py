"""The §5 control loop end to end: sampler → T_remain / what-if → request
check → arbiter bid → applied tuning, pinned on five scenarios.

``control_loop_golden.json`` was recorded at the commit before the
collector, what-if service, request filter and dynamic optimizer were
merged into one sampler and one tuner (``PYTHONPATH=src python
tests/test_control_loop.py`` there, redirected into the JSON file; the
scenarios use only the public tuning surface, which both sides have) —
so every kernel event, finish time, applied request, estimate and
decision count is checked against the old code, not against itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import DopPlanner, QueryOptions
from repro.data.tpch.queries import QUERIES

from conftest import builds_ready, run_until_cond, slow_engine
from test_workload import JOIN_COUNT_SQL, workload_engine

MAX_EVENTS = 5_000_000
GOLDEN = Path(__file__).with_name("control_loop_golden.json")


# -- what is pinned ------------------------------------------------------------
def probe(engine, tuning, stage: int, *dops: int) -> dict:
    """Every §5 read of ``stage`` at this instant."""
    estimates = []
    for dop in dops:
        e = tuning.estimate(stage, dop)
        estimates.append(
            None if e is None
            else [e.current_dop, e.target_dop, e.t_remain, e.t_tuning, e.n_f, e.t_predicted]
        )
    return {
        "t": engine.now,
        "remaining": tuning.remaining_time(stage),
        "estimates": estimates,
        "bottlenecks": [[b.stage, b.kind, b.detail] for b in tuning.bottlenecks()],
    }


def applied(tuning) -> list:
    return [
        [r.request.describe(), r.issued_at, r.completed_at, r.shuffle_seconds, r.build_seconds]
        for r in tuning.tuner.applied
    ]


def summary(engine, queries, tunings, probes) -> dict:
    counts = engine.decisions.counts()
    return {
        "events": engine.kernel.events_processed,
        "finished_at": [q.finished_at for q in queries],
        "applied": [applied(t) for t in tunings],
        "probes": probes,
        "decisions": {f"{k}:{o}": n for (k, o), n in sorted(counts.items())},
    }


# -- the five scenarios ----------------------------------------------------------
def q3_ac_ap_rp(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    tuning = query.tuning
    probes = []
    for at, tune in ((2.0, tuning.ac), (5.0, tuning.ap), (9.0, tuning.rp)):
        engine.run_until(at)
        probes.append(probe(engine, tuning, 1, 2, 4, 1000))
        tune(1, 1 if tune == tuning.rp else 3)
    engine.run_until(12.0)
    probes.append(probe(engine, tuning, 1, 2, 4))
    engine.run_until_done(query, max_events=MAX_EVENTS)
    probes.append(probe(engine, tuning, 1, 2))
    return summary(engine, [query], [tuning], probes)


def q3_tune_once(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    tuning = query.tuning
    run_until_cond(engine, builds_ready(query, 1))
    engine.run_for(3.0)
    probes = [probe(engine, tuning, 1, 1, 2, 3, 4, 6, 8, 12, 16)]
    result = tuning.tune_once(1, 12.0)
    probes.append(probe(engine, tuning, 1, 4))
    engine.run_until_done(query, max_events=MAX_EVENTS)
    out = summary(engine, [query], [tuning], probes)
    out["chosen"] = result.request.describe()
    return out


def q3_planned_monitor(catalog):
    """Figure 30b's workflow: the DOP planner's per-scan constraints, the
    monitor at a 2 s period, and a much tighter S1 constraint mid-flight."""
    engine = slow_engine(catalog)
    plan = engine.coordinator.plan_sql(QUERIES["Q3"], QueryOptions())
    dop_plan = DopPlanner(catalog, engine.config).plan(plan, 90.0)
    query = engine.submit(
        QUERIES["Q3"],
        QueryOptions(
            initial_stage_dop=max(2, dop_plan.initial_stage_dop),
            initial_task_dop=dop_plan.initial_task_dop,
        ),
    )
    tuning = query.tuning
    for scan_stage, scan_deadline in sorted(dop_plan.scan_deadlines.items()):
        tuning.set_constraint(scan_stage, scan_deadline)
    tuning.start_monitor(period=2.0)
    probes = []
    for at in (5.0, 10.0, 22.5):
        engine.run_until(at)
        probes.append(probe(engine, tuning, 1, 1, 4))
    tuning.set_constraint(1, 1.8)
    for at in (25.0, 30.0):
        engine.run_until(at)
        probes.append(probe(engine, tuning, 1, 4))
    engine.run_until_done(query, max_events=MAX_EVENTS)
    return summary(engine, [query], [tuning], probes)


def q2j_switch(catalog):
    engine = slow_engine(catalog)
    query = engine.submit(
        QUERIES["Q2J"], QueryOptions(join_distribution="partitioned", initial_stage_dop=2)
    )
    tuning = query.tuning
    run_until_cond(engine, builds_ready(query, 1))
    probes = [probe(engine, tuning, 1, 4)]
    tuning.ap(1, 4)
    engine.run_for(1.0)
    probes.append(probe(engine, tuning, 1, 4, 8))
    engine.run_for(4.0)
    probes.append(probe(engine, tuning, 1, 8))
    engine.run_until_done(query, max_events=MAX_EVENTS)
    return summary(engine, [query], [tuning], probes)


def deadline_revoke(catalog):
    """A deadline-endangered query makes the arbiter revoke another
    tenant's over-baseline cores, then pin that stage."""
    engine = workload_engine(
        catalog,
        multiplier=1000.0,
        cluster={"compute_nodes": 2},
        arbitration="deadline",
        arbiter_period=1.0,
        revocation_pin_seconds=5.0,
    )
    batch = engine.session("batch").submit(JOIN_COUNT_SQL)
    engine.run_for(2.0)
    knob = batch.tuning.units()[0].knob_stage
    batch.tuning.ap(knob, 12)
    engine.run_for(1.0)
    rush = engine.session("rush", deadline=4.0).submit(JOIN_COUNT_SQL)
    probes = []
    for step in range(1, 7):
        engine.run_until(3.0 + step)
        for handle in (batch, rush):
            if not handle.finished:
                probes.append(probe(engine, handle.tuning, knob, 4))
    rush.result()
    batch.result()
    return summary(
        engine,
        [rush.execution, batch.execution],
        [rush.tuning, batch.tuning],
        probes,
    )


SCENARIOS = [q3_ac_ap_rp, q3_tune_once, q3_planned_monitor, q2j_switch, deadline_revoke]


def observe(catalog) -> dict:
    return {scenario.__name__: scenario(catalog) for scenario in SCENARIOS}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
def test_control_loop_is_bit_identical_to_recorded_golden(catalog, scenario):
    golden = json.loads(GOLDEN.read_text())
    assert json.loads(json.dumps(scenario(catalog))) == golden[scenario.__name__]


if __name__ == "__main__":  # record the goldens (run this at the parent)
    from repro.data import Catalog

    print(json.dumps(observe(Catalog.tpch(scale=0.005, seed=777)), indent=1))
