"""Figure 22: Q3 execution time under different degrees of intra-stage and
intra-task parallelism, plus the IntraTask-Inc / IntraStage-Inc variants
(start at DOP 1, ramp up during execution).

Paper shapes: execution time falls steeply with either DOP axis and
flattens at higher degrees; the incremental curves sit above the static
ones (scheduling + hash-rebuild overheads), with the intra-stage gap the
larger of the two.
"""

from repro import AccordionEngine, CostModel, EngineConfig, QueryOptions, TPCH_QUERIES as QUERIES, TuningRejected


DOPS = [1, 2, 4, 8]
RAMP_INTERVAL = 1.5


def make_engine(catalog):
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    return AccordionEngine(catalog, config=config)


def tunable_stages(query):
    return [
        s.id
        for s in query.stages.values()
        if not s.fragment.dop_fixed
    ]


def run_static(catalog, stage_dop=1, task_dop=1):
    engine = make_engine(catalog)
    result = engine.execute(
        QUERIES["Q3"],
        QueryOptions(initial_stage_dop=stage_dop, initial_task_dop=task_dop),
        max_virtual_seconds=1e6,
    )
    return result.elapsed_seconds


def run_incremental(catalog, verb, target):
    """Start at DOP 1 and ramp every tunable stage up to ``target``."""
    engine = make_engine(catalog)
    query = engine.submit(QUERIES["Q3"])
    elastic = query.tuning
    step = 2
    time = RAMP_INTERVAL
    while step <= target:
        engine.kernel.run(until=time, stop_when=lambda: query.finished)
        if query.finished:
            break
        for stage_id in tunable_stages(query):
            try:
                getattr(elastic, verb)(stage_id, step)
            except TuningRejected:
                pass
        step *= 2
        time += RAMP_INTERVAL
    engine.run_until_done(query, 1e6)
    return query.elapsed


def test_fig22_q3_dop_curves(record, small_catalog):
    intra_stage = {d: run_static(small_catalog, stage_dop=d) for d in DOPS}
    intra_task = {d: run_static(small_catalog, task_dop=d) for d in DOPS}
    stage_inc = {d: run_incremental(small_catalog, "ap", d) for d in DOPS[1:]}
    task_inc = {d: run_incremental(small_catalog, "ac", d) for d in DOPS[1:]}
    curves = {"IntraStage": intra_stage, "IntraTask": intra_task,
              "IntraStage-Inc": stage_inc, "IntraTask-Inc": task_inc}
    for label, times in curves.items():
        for d, seconds in times.items():
            record("Figure 22", f"DOP {d}", label, seconds, digits=1)

    # Shape 1: higher DOP, faster — monotone (with slack for flattening).
    assert intra_stage[1] > intra_stage[2] > intra_stage[4]
    assert intra_task[1] > intra_task[2] > intra_task[4]
    assert intra_stage[8] <= intra_stage[4] * 1.15
    assert intra_task[8] <= intra_task[4] * 1.15

    # Shape 2: meaningful total speedup at DOP 8 (paper: ~5-8x).
    assert intra_stage[1] / intra_stage[8] > 2.5
    assert intra_task[1] / intra_task[8] > 2.5

    # Shape 3: incremental ramps cost more than starting at the target DOP,
    # and less than staying at DOP 1.
    for d in (2, 4, 8):
        assert task_inc[d] >= intra_task[d] * 0.95
        assert task_inc[d] < intra_task[1]
        assert stage_inc[d] >= intra_stage[d] * 0.95
        assert stage_inc[d] < intra_stage[1]
