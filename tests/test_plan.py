"""Timed-action plans (``repro.script.plan``): one event list, one applier.

Fault schedules, churn schedules and the §6.1 script's ``at`` lines are
one :class:`~repro.Plan`, applied by ``engine.apply`` or, line by line,
by ``run_script``.  A plan rendered as script text parses back to the
same plan, so either route reaches the same run.
"""

from __future__ import annotations

import pytest

from repro import (
    NodeCrash,
    NodeDrain,
    NodeJoin,
    Plan,
    QueryFailedError,
    RpcOutage,
    RpcStorm,
    SpotPreemption,
    TaskCrash,
    run_script,
)
from repro.data.tpch.queries import QUERIES
from repro.errors import ScriptError
from repro.script import parse_script
from repro.script.plan import Constraint, Tune, TuneOnce

from conftest import norm_rows, slow_engine
from test_faults import MAX_EVENTS, reference_rows

FAULT_ARGS = [
    (3, dict(horizon=20.0, compute_nodes=4, storage_nodes=2, node_crashes=2, storms=1)),
    (1234, dict(
        horizon=12.0, compute_nodes=4, storage_nodes=2, node_crashes=2, storms=1,
        storm_failure_rate=0.3,
    )),
    (7, dict(horizon=5.0, compute_nodes=3, node_crashes=5, storms=3)),
]
CHURN_ARGS = [
    (9, dict(horizon=20.0, joins=3, drains=2, preemptions=2)),
    (20250807, dict(horizon=8.0, joins=1, preemptions=2, notice=0.3)),
    (5, dict(horizon=8.0, joins=2, drains=1, preemptions=1, spot=False)),
]
#: The generators' events, recorded before they became ``Plan``
#: constructors (as ``FaultPlan.random`` / ``MembershipPlan.random``).
FAULT_PINS = [
    [("NodeCrash", 7.430605572634181, "storage0"),
     ("NodeCrash", 10.90737304465424, "compute1"),
     ("RpcStorm", 12.078400771923889, 18.354317797799027, 0.4, 0.0)],
    [("NodeCrash", 0.13952306720011692, "compute3"),
     ("NodeCrash", 10.936162751267034, "compute0"),
     ("RpcStorm", 11.271227968365167, 14.785482028065914, 0.3, 0.0)],
    [("NodeCrash", 0.4085596190043367, "compute0"),
     ("RpcStorm", 1.8284445845629276, 2.0205419502609594, 0.4, 0.0),
     ("RpcStorm", 2.168228418311929, 2.3893742060697454, 0.4, 0.0),
     ("RpcStorm", 2.5371786659471014, 2.6790430291299643, 0.4, 0.0),
     ("NodeCrash", 2.7026159213181113, "compute2"),
     ("NodeCrash", 3.272125641547276, "compute1")],
]
CHURN_PINS = [
    [("NodeDrain", 0.17837932891841035, "newest", None),
     ("NodeJoin", 2.7707882502891046, 1, True),
     ("NodeJoin", 7.466238627900841, 1, True),
     ("NodeJoin", 9.260147156300429, 1, True),
     ("SpotPreemption", 10.080502497041557, "newest", 0.5),
     ("NodeDrain", 17.33790890722751, "newest", None),
     ("SpotPreemption", 17.971044502137165, "newest", 0.5)],
    [("SpotPreemption", 6.986239663772456, "newest", 0.3),
     ("NodeJoin", 7.788577587038771, 1, True),
     ("SpotPreemption", 7.946705313424194, "newest", 0.3)],
    [("NodeJoin", 4.983213559117615, 1, False),
     ("NodeJoin", 5.934295914085835, 1, False),
     ("NodeDrain", 6.371788846247289, "newest", None),
     ("SpotPreemption", 7.54247975602755, "newest", 0.5)],
]


def event_tuples(plan) -> list[tuple]:
    return [
        (type(e).__name__,) + tuple(v for k, v in vars(e).items() if k != "kind")
        for e in plan.events
    ]


# -- generators ---------------------------------------------------------------
@pytest.mark.parametrize("args, pin", zip(FAULT_ARGS, FAULT_PINS))
def test_random_faults_draws_what_it_always_drew(args, pin):
    seed, kwargs = args
    assert event_tuples(Plan.random_faults(seed, **kwargs)) == pin


@pytest.mark.parametrize("args, pin", zip(CHURN_ARGS, CHURN_PINS))
def test_random_churn_draws_what_it_always_drew(args, pin):
    seed, kwargs = args
    assert event_tuples(Plan.random_churn(seed=seed, **kwargs)) == pin


# -- script text round trip -------------------------------------------------------
EVERY_KIND = Plan(42, (
    NodeCrash(at=3.5, node="compute2"),
    TaskCrash(at=1.4, stage=2),
    TaskCrash(at=0.1 + 0.2, stage=3, index=1),
    RpcStorm(start=0.0, stop=1e6, failure_rate=0.2, delay=0.002),
    RpcStorm(start=1e-05, stop=2.5),
    RpcOutage(start=2.0, stop=1e16),
    NodeJoin(at=2, count=1, spot=True),
    NodeJoin(at=2.5, count=3),
    NodeDrain(at=4.0, node="compute3", timeout=10.0),
    NodeDrain(at=5.0),
    SpotPreemption(at=6.0, notice=0.3),
    Tune(at=1.0, verb="ap", query="q3", stage=1, target=4),
    Tune(at=2.0, verb="ac", query="q3", stage=3, target=2),
    Tune(at=3.0, verb="rp", query="q3", stage=1, target=2),
    Constraint(at=5.0, query="q3", stage=1, seconds=30.0),
    TuneOnce(at=5.5, query="q3", stage=1, seconds=20.0),
))


def test_every_event_kind_renders_to_script_text_that_parses_back():
    text = EVERY_KIND.describe()
    assert text.splitlines()[:4] == [
        "seed 42", "at 3.5s crash compute2", "at 1.4s crash_task S2 0",
        "at 0.30000000000000004s crash_task S3 1",
    ]
    assert "at 6.0s preempt newest notice=0.3s" in text
    assert parse_script(text) == EVERY_KIND


@pytest.mark.parametrize("seed", range(50))
def test_generated_plans_round_trip(seed):
    for plan in (
        Plan.random_faults(seed, horizon=12.0, compute_nodes=4, storage_nodes=2,
                           node_crashes=2, storms=2, storm_failure_rate=0.3),
        Plan.random_churn(seed, horizon=8.0, joins=2, drains=1, preemptions=2,
                          notice=0.3),
    ):
        assert parse_script(plan.describe()) == plan


@pytest.mark.parametrize("bad", [
    "at 1s crash", "at 1s crash_task 2", "at 1s join", "at 1s join 1 ondemand",
    "at 1s drain newest notice=1s", "at 1s storm 2s", "at 1s outage until 2s rate=1",
    "at 1s preempt", "seed", "seed x",
])
def test_bad_event_lines(bad):
    with pytest.raises(ScriptError, match="line 1"):
        parse_script(bad)


# -- one applier --------------------------------------------------------------------
def test_apply_takes_timed_events_only(catalog):
    engine = slow_engine(catalog)
    with pytest.raises(ScriptError, match="script step"):
        engine.apply(parse_script("run for 1s"))
    with pytest.raises(ScriptError, match="names a script query"):
        engine.apply(parse_script("at 1s ap q S1 2"))


def test_a_second_plan_keeps_the_first_plans_rpc_windows(tiny_catalog):
    """Arming a second plan's storm used to replace the first plan's
    outage: the query then finished with no request given up."""
    engine = slow_engine(tiny_catalog)
    engine.apply(Plan(events=(RpcOutage(start=0.0, stop=1e9),)))
    engine.apply(Plan(seed=1, events=(RpcStorm(start=1e8, stop=2e8),)))
    query = engine.submit(QUERIES["Q6"])
    with pytest.raises(QueryFailedError, match="control-plane"):
        engine.run_until_done(query, max_events=MAX_EVENTS)
    assert engine.coordinator.rpc.failed_requests == 1


def test_one_task_crash_crashes_one_task(tiny_catalog):
    """With two Q3 runs in flight, a ``TaskCrash`` used to crash a task
    of every running query with that stage; it crashes the lowest-id
    query's, and both answers stay exact."""
    engine = slow_engine(tiny_catalog)
    engine.apply(Plan(events=(TaskCrash(at=1.4, stage=2),)))
    first, second = engine.submit(QUERIES["Q3"]), engine.submit(QUERIES["Q3"])
    for handle in (first, second):
        engine.run_until_done(handle, max_events=MAX_EVENTS)
    crashes = engine.decisions.of(kind="inject", outcome="task_crash")
    assert [d.query_id for d in crashes] == [first.id]
    expected = reference_rows(tiny_catalog, QUERIES["Q3"])
    assert norm_rows(first.result().rows) == norm_rows(second.result().rows) == expected


def test_a_script_and_an_applied_plan_reach_the_same_run(tiny_catalog):
    """The same fault lines, once inside a script and once applied as a
    plan: equal decisions, equal answer, equal finish time."""
    faults = "seed 42\nat 3.5s crash compute2\nat 1.4s crash_task S2 0\n" \
        "at 0.0s storm until 1000000.0s rate=0.2 delay=0.0s\n"

    scripted_engine = slow_engine(tiny_catalog)
    scripted = run_script(
        scripted_engine, faults + "submit q Q3\nrun until q done max=1e6s"
    ).query("q")
    applied_engine = slow_engine(tiny_catalog)
    applied_engine.apply(parse_script(faults))
    applied = applied_engine.submit(QUERIES["Q3"])
    applied_engine.run_until_done(applied, max_events=MAX_EVENTS)
    assert list(scripted_engine.decisions) == list(applied_engine.decisions)
    assert scripted.elapsed == applied.elapsed
    assert norm_rows(scripted.result().rows) == norm_rows(applied.result().rows)
    assert scripted_engine.metrics.snapshot()["faults.injected"] == 2
