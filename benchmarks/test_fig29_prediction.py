"""Figure 29: stage remaining-execution-time prediction accuracy.

Q3 starts at stage DOP 2 / task DOP 3.  Before each stage-DOP adjustment,
the what-if service estimates the remaining time at the new parallelism;
the paper's check is that (adjustment time + predicted remaining time)
lands close to the stage's actual completion time.
"""

from repro import AccordionEngine, CostModel, EngineConfig, QueryOptions, TPCH_QUERIES as QUERIES, TuningRejected


def make_engine(catalog):
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    return AccordionEngine(catalog, config=config)


def builds_ready(query, stage_id):
    active = query.stages[stage_id].active_group
    return bool(active) and all(b.ready for t in active for b in t.bridges)


def test_fig29_remaining_time_prediction(record, eval_catalog):
    engine = make_engine(eval_catalog)
    query = engine.submit(
        QUERIES["Q3"], QueryOptions(initial_stage_dop=2, initial_task_dop=3)
    )
    elastic = query.tuning
    observations = []
    for stage_id, target in ((3, 6), (1, 8)):
        engine.kernel.run(
            until=engine.now + 1e5,
            stop_when=lambda: builds_ready(query, stage_id)
            or query.stages[stage_id].finished
            or query.finished,
        )
        engine.run_for(1.5)  # let a rate sample accumulate
        if query.finished or query.stages[stage_id].finished:
            continue
        prediction = elastic.estimate(stage_id, target)
        if prediction is None or prediction.t_remain <= prediction.t_tuning:
            continue  # stage (nearly) done at this reduced scale
        issued_at = engine.now
        try:
            elastic.ap(stage_id, target)
        except TuningRejected:
            continue
        observations.append((stage_id, target, issued_at, prediction))
    engine.run_until_done(query, 1e6)
    assert observations, "at least one prediction must be made"

    errors = []
    for stage_id, target, issued_at, prediction in observations:
        predicted_finish = issued_at + prediction.t_predicted
        actual_finish = max(t.finished_at for t in query.stages[stage_id].tasks)
        span = max(1e-9, actual_finish - issued_at)
        error = 100 * abs(actual_finish - predicted_finish) / span
        errors.append(error)
        case = f"S{stage_id} → {target}"
        record("Figure 29", case, "at", issued_at, digits=1)
        record("Figure 29", case, "T_remain", prediction.t_remain, digits=1)
        record("Figure 29", case, "T_tuning", prediction.t_tuning)
        record("Figure 29", case, "predicted", predicted_finish, digits=1)
        record("Figure 29", case, "actual", actual_finish, digits=1)
        record("Figure 29", case, "error", error, "%", 0, paper=4)

    # Paper's point: predictions are accurate. Allow generous slack since
    # our rates come from short windows at reduced scale: within 60 % of
    # the remaining span.
    assert max(errors) <= 60
