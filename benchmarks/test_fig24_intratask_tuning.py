"""Figure 24: stage throughput curves under intra-task DOP tuning of Q3.

The script executor adjusts task DOP for stage 3 and (three times) for
stage 1, as in the paper.  Paper shapes: throughput steps up promptly
after each accepted adjustment; the final stage-1 adjustment brings no
further gain once CPU is saturated; the query finishes far faster than
untuned (paper: 58.42% reduction).
"""

from repro import (
    AccordionEngine,
    CostModel,
    EngineConfig,
    TPCH_QUERIES as QUERIES,
    run_script,
)

from conftest import emit_stage_curves, norm_rows

SCRIPT = """
submit q3 Q3 stage_dop=1 task_dop=1
at 2s  ac q3 S3 2
at 4s  ac q3 S1 2
at 7s  ac q3 S1 4
at 10s ac q3 S1 16
run until q3 done max=100000s
"""


def make_engine(catalog):
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    return AccordionEngine(catalog, config=config)


def test_fig24_intra_task_tuning(record, small_catalog):
    untuned = make_engine(small_catalog).execute(QUERIES["Q3"], max_virtual_seconds=1e6)
    scripted = run_script(make_engine(small_catalog), SCRIPT)
    query = scripted.query("q3")
    reduction = 100.0 * (1 - query.elapsed / untuned.elapsed_seconds)

    emit_stage_curves(
        "Figure 24: Q3 stage throughput under intra-task DOP tuning",
        query,
        stages=[1, 2, 3],
    )
    record("Figure 24", "Q3", "untuned", untuned.elapsed_seconds, digits=1)
    record("Figure 24", "Q3", "tuned", query.elapsed, digits=1)
    record("Figure 24", "Q3", "reduction", reduction, "%", 1, paper=58.42)
    record("Figure 24", "Q3", "accepted", len(scripted.accepted_actions()), "", 0)

    # Results identical to the untuned run.
    assert norm_rows(query.result().rows) == norm_rows(untuned.rows)

    # Substantial reduction, in the paper's ballpark.
    assert 30.0 < reduction < 85.0

    # Throughput of S1's input stream steps up after the tuning actions.
    rate = query.tracker.processing_rate(2)  # probe-side scan consumption

    def mean_rate(t0, t1):
        window = [v for t, v in zip(rate.times, rate.values) if t0 <= t <= t1]
        return sum(window) / len(window) if window else 0.0

    before = mean_rate(2.0, 4.0)
    after = mean_rate(8.0, 10.0)
    assert after > before

    # Driver generation is cheap: each accepted action takes effect without
    # a measurable pause (no rejected actions before CPU saturation).
    assert len(scripted.accepted_actions()) >= 3
