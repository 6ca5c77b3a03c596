"""Figure 25: stage DOP tuning results for Q1, Q3, Q5 and Q7.

Each query starts at stage/task DOP 1 and receives scripted "AP Sn,a,b"
stage-DOP increases.  Paper shapes: each accepted adjustment raises
throughput; join-stage adjustments are followed by hash-table rebuild
markers (yellow dashed lines); late adjustments are rejected by the
coordinator when the remaining time undercuts T_build; overall reductions
are large (Q3: 73.71%).
"""

import pytest

from repro import (
    AccordionEngine,
    CostModel,
    EngineConfig,
    TPCH_QUERIES as QUERIES,
    run_script,
)

from conftest import emit_stage_curves, norm_rows

SCRIPTS = {
    "Q1": """
        submit q Q1 stage_dop=1 task_dop=1
        at 2s ap q S1 3
        at 4s ap q S1 6
        run until q done max=100000s
    """,
    "Q3": """
        submit q Q3 stage_dop=1 task_dop=1
        at 2s ap q S3 3
        at 4s ap q S1 2
        at 6s ap q S1 4
        at 9s ap q S1 8
        at 90000s ap q S1 12
        run until q done max=100000s
        run for 100000s
    """,
    "Q5": """
        submit q Q5 stage_dop=1 task_dop=1
        at 2s ap q S1 2
        at 5s ap q S1 4
        run until q done max=100000s
    """,
    "Q7": """
        submit q Q7 stage_dop=1 task_dop=1
        at 2s ap q S5 2
        at 4s ap q S5 4
        at 7s ap q S3 2
        run until q done max=100000s
    """,
}


def make_engine(catalog):
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    return AccordionEngine(catalog, config=config)


@pytest.mark.parametrize("name", ["Q1", "Q3", "Q5", "Q7"])
def test_fig25_stage_dop_tuning(record, small_catalog, name):
    untuned = make_engine(small_catalog).execute(QUERIES[name], max_virtual_seconds=1e6)
    scripted = run_script(make_engine(small_catalog), SCRIPTS[name])
    query = scripted.query("q")
    reduction = 100.0 * (1 - query.elapsed / untuned.elapsed_seconds)

    emit_stage_curves(
        f"Figure 25 ({name}): stage throughput under intra-stage DOP tuning",
        query,
        stages=[s for s in (1, 2, 3) if s in query.stages],
    )
    record("Figure 25", name, "untuned", untuned.elapsed_seconds, digits=1)
    record("Figure 25", name, "tuned", query.elapsed, digits=1)
    paper = 73.71 if name == "Q3" else None
    record("Figure 25", name, "reduction", reduction, "%", 1, paper=paper)
    record("Figure 25", name, "accepted", len(scripted.accepted_actions()), "", 0)
    record("Figure 25", name, "rejected", len(scripted.rejected_actions()), "", 0)
    record("Figure 25", name, "init", query.initialization_seconds * 1000, "ms", 0)

    # Elasticity never changes the answer.
    assert norm_rows(query.result().rows) == norm_rows(untuned.rows)
    # Meaningful speedup from stage tuning.
    assert reduction > 25.0, reduction
    # At least the first adjustments were accepted.
    assert len(scripted.accepted_actions()) >= 2

    if name == "Q3":
        # Join stages rebuilt hash tables after the adjustments.
        assert len(query.tracker.markers_of("build_ready")) >= 2
        # The out-of-time request was rejected by the coordinator.
        assert len(scripted.rejected_actions()) >= 1
