"""Tests for the experiment scripting language (Section 6.1)."""

import pytest

from repro import AccordionEngine, presto_config, prestissimo_config
from repro.errors import ExecutionError, ScriptError
from repro.script import parse_script, parse_stage, parse_time, run_script
from repro.script.lang import (
    Constraint,
    MonitorCommand,
    RunForCommand,
    RunUntilDoneCommand,
    SubmitCommand,
    Tune,
    TuneOnce,
)

from conftest import norm_rows, slow_engine


# -- parsing -----------------------------------------------------------------
def test_parse_time_units():
    assert parse_time("10s") == 10.0
    assert parse_time("2.5") == 2.5
    assert parse_time("500ms") == 0.5
    with pytest.raises(ScriptError):
        parse_time("10m")


def test_parse_stage():
    assert parse_stage("S3") == 3
    assert parse_stage("s12") == 12
    with pytest.raises(ScriptError):
        parse_stage("stage3")


def test_parse_full_script():
    commands = parse_script(
        """
        # a comment
        submit q3 Q3 stage_dop=2 task_dop=1 join=broadcast

        at 10s ac q3 S3 2
        at 20s ap q3 S1 4
        at 30s rp q3 S1 2
        at 5s constraint q3 S1 60s
        at 6s tune_once q3 S1 30s
        monitor q3 period=2s
        run for 10s
        run until q3 done max=500s
        """
    )
    kinds = [type(c) for c in commands]
    assert kinds == [
        SubmitCommand,
        Tune,
        Tune,
        Tune,
        Constraint,
        TuneOnce,
        MonitorCommand,
        RunForCommand,
        RunUntilDoneCommand,
    ]
    submit = commands[0]
    assert submit.options == {"stage_dop": "2", "task_dop": "1", "join": "broadcast"}
    tune = commands[1]
    assert (tune.verb, tune.stage, tune.target) == ("ac", 3, 2)
    run_until = commands[-1]
    assert run_until.max_seconds == 500.0


def test_parse_quoted_sql():
    commands = parse_script('submit q "select count(*) from nation"')
    assert commands[0].query == "select count(*) from nation"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScriptError) as err:
        parse_script("submit q3 Q3\nat ten ac q3 S1 2")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "bad",
    [
        "submit onlyname",
        "at 5s ac q3 S1",
        "at 5s frobnicate q3 S1 2",
        "monitor",
        "run",
        "run until q3",
        "submit q Q3 bogus",
        "teleport q3",
    ],
)
def test_bad_commands(bad):
    with pytest.raises(ScriptError):
        parse_script(bad)


# -- execution -----------------------------------------------------------------
def test_script_runs_named_query(catalog):
    engine = slow_engine(catalog)
    result = run_script(
        engine,
        """
        submit q6 Q6
        run until q6 done max=100000s
        """,
    )
    query = result.query("q6")
    assert query.finished
    assert query.result_rows == 1


def test_script_runs_raw_sql(catalog):
    engine = slow_engine(catalog)
    result = run_script(
        engine,
        'submit q "select count(*) from nation"\nrun until q done',
    )
    assert result.query("q").result().rows == [(25,)]


def test_script_tuning_actions_logged(catalog):
    engine = slow_engine(catalog)
    result = run_script(
        engine,
        """
        submit q3 Q3
        at 2s ac q3 S1 3
        at 90000s ap q3 S1 2
        run until q3 done max=100000s
        run for 100000s
        """,
    )
    accepted = result.accepted_actions()
    rejected = result.rejected_actions()
    assert [a.description for a in accepted] == ["AC S1 -> 3"]
    assert len(rejected) == 1  # fires after the query finished
    assert rejected[0].reason == "finished"


def test_script_submit_options_applied(catalog):
    engine = slow_engine(catalog)
    result = run_script(
        engine,
        """
        submit qj Q2J join=partitioned stage_dop=2 s2=3
        run for 1s
        """,
    )
    query = result.query("qj")
    assert query.stages[1].stage_dop == 2
    assert query.stages[2].stage_dop == 3
    engine.run_until_done(query, 1e6)


def test_script_results_match_unscripted(catalog):
    engine = slow_engine(catalog)
    result = run_script(
        engine,
        """
        submit q3 Q3
        at 2s ap q3 S1 2
        run until q3 done max=100000s
        """,
    )
    from repro.data.tpch.queries import QUERIES

    engine2 = slow_engine(catalog)
    plain = engine2.execute(QUERIES["Q3"], max_virtual_seconds=1e6)
    assert norm_rows(result.query("q3").result().rows) == norm_rows(plain.rows)


def test_script_monitor_and_constraint(catalog):
    engine = slow_engine(catalog)
    result = run_script(
        engine,
        """
        submit q3 Q3 stage_dop=2
        at 1s constraint q3 S1 500s
        monitor q3 period=1s
        run until q3 done max=100000s
        """,
    )
    assert result.query("q3").finished


@pytest.mark.parametrize("config", [presto_config, prestissimo_config])
def test_baseline_engine_fails_only_a_script_that_tunes(catalog, config):
    """Presto and Prestissimo have no runtime elasticity: a script that
    never tunes runs on them, and one that tunes says why it cannot."""
    engine = AccordionEngine(catalog, config())
    result = run_script(engine, "submit q Q6\nrun until q done")
    assert len(result.query("q").result().rows) == 1
    with pytest.raises(ExecutionError, match="does not support IQRE"):
        run_script(engine, "submit q3 Q3\nat 1s ap q3 S1 2")


def test_duplicate_query_name_rejected(catalog):
    engine = slow_engine(catalog)
    with pytest.raises(ScriptError):
        run_script(engine, "submit q Q6\nsubmit q Q6")


def test_unknown_query_reference(catalog):
    engine = slow_engine(catalog)
    with pytest.raises(ScriptError):
        run_script(engine, "run until nope done")
