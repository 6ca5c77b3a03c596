"""Figures 27 + 28: the elastic shuffle stage (Section 6.4.2).

Setup: the orders table is stored on only two nodes so the shuffle work
of the partitioned join (hash-partitioning orders rows to ten join tasks)
bottlenecks those nodes.  Figure 27 shows the plan after inserting a
dedicated shuffle stage downstream of the orders scan; Figure 28 shows
stage throughput rising as the shuffle stage's parallelism is increased —
until the bottleneck shifts to the join stage and further increases stop
helping.
"""

from repro import (
    OutputMode,
    QueryOptions,
    TPCH_QUERIES as QUERIES,
    TuningRejected,
    shuffle_experiment_engine,
)

from conftest import emit, norm_rows

BASE = dict(join_distribution="partitioned", scan_stage_dop=2, initial_task_dop=6)
SWEEP = (1, 2, 4, 6, 8)


def shuffle_options(shuffle_dop):
    return QueryOptions(
        shuffle_stage_tables=frozenset({"orders"}),
        stage_dops={1: 10, 2: shuffle_dop},
        **BASE,
    )


def test_fig27_plan_with_shuffle_stage(record):
    engine = shuffle_experiment_engine()
    plan = engine.coordinator.plan_sql(QUERIES["QSHUFFLE"], shuffle_options(1))
    emit("Figure 27: physical plan after adding the shuffle stage", plan.describe())
    record("Figure 27", "QSHUFFLE", "stages", len(plan.fragments), "", 0)
    shuffle = plan.fragment(2)
    assert shuffle.is_shuffle_stage
    assert shuffle.output.mode is OutputMode.HASH
    assert plan.fragment(3).source_table == "orders"
    assert plan.fragment(3).output.mode is OutputMode.ARBITRARY


def test_fig28_shuffle_stage_parallelism_sweep(record):
    times = {}
    rows = {}
    for dop in SWEEP:
        engine = shuffle_experiment_engine()
        result = engine.execute(
            QUERIES["QSHUFFLE"], shuffle_options(dop), max_virtual_seconds=1e6
        )
        times[dop] = result.elapsed_seconds
        rows[dop] = norm_rows(result.rows)
    for dop in SWEEP:
        record("Figure 28", f"DOP {dop}", "time", times[dop])
        record("Figure 28", f"DOP {dop}", "speedup", times[1] / times[dop], "×")

    # All configurations agree on the answer.
    assert all(rows[d] == rows[1] for d in SWEEP)
    # Throughput rises with shuffle parallelism...
    assert times[1] > times[4] > 0
    assert times[1] / times[6] > 1.5
    # ...and flattens once the join becomes the bottleneck.
    assert abs(times[8] - times[6]) < 0.35 * times[6]


def test_fig28_runtime_shuffle_tuning(record):
    """The paper's actual experiment tunes S2 *during* execution."""
    engine = shuffle_experiment_engine()
    query = engine.submit(QUERIES["QSHUFFLE"], shuffle_options(1))
    elastic = query.tuning
    applied = []
    for time, target in ((4.0, 4), (8.0, 8)):
        engine.kernel.run(until=time, stop_when=lambda: query.finished)
        if query.finished:
            break
        try:
            elastic.ap(2, target)
            applied.append(target)
        except TuningRejected:
            pass
    engine.run_until_done(query, 1e6)
    static = shuffle_experiment_engine().execute(
        QUERIES["QSHUFFLE"], shuffle_options(1), max_virtual_seconds=1e6
    )

    reduction = 100.0 * (1 - query.elapsed / static.elapsed_seconds)
    case = "1 → " + " → ".join(map(str, applied))
    record("Figure 28 (runtime)", case, "static", static.elapsed_seconds, digits=1)
    record("Figure 28 (runtime)", case, "tuned", query.elapsed, digits=1)
    record("Figure 28 (runtime)", case, "reduction", reduction, "%", 1, paper=33.19)
    assert applied, "at least one shuffle-stage DOP increase must be applied"
    assert norm_rows(query.result().rows) == norm_rows(static.rows)
    assert reduction > 20.0
