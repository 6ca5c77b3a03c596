"""Figure 26 + Table 2: partitioned hash join DOP switching on Q2J.

The two-way join (Figure 15) starts at stage DOP 2 and is switched
2 -> 4 -> 6, with a final request rejected when the remaining time falls
below T_build.  Table 2 reports the per-switch state transfer breakdown
(total = shuffle + build); the paper's key trend is that the transfer
gets *cheaper* as the DOP grows (more nodes share the reshuffle work).
"""

from repro import AccordionEngine, CostModel, EngineConfig, QueryOptions, TPCH_QUERIES as QUERIES, TuningRejected

from conftest import emit_stage_curves, norm_rows


def make_engine(catalog):
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    return AccordionEngine(catalog, config=config)


def options():
    return QueryOptions(join_distribution="partitioned", initial_stage_dop=2)


def builds_ready(query):
    active = query.stages[1].active_group
    return bool(active) and all(b.ready for t in active for b in t.bridges)


def test_fig26_table2_dop_switching(record, eval_catalog):
    untuned = make_engine(eval_catalog).execute(
        QUERIES["Q2J"], options(), max_virtual_seconds=1e6
    )

    engine = make_engine(eval_catalog)
    query = engine.submit(QUERIES["Q2J"], options())
    elastic = query.tuning
    switches = []
    rejected = []
    for target in (4, 6):
        engine.kernel.run(
            until=engine.now + 1e5,
            stop_when=lambda: builds_ready(query) or query.finished,
        )
        if query.finished:
            break
        try:
            result = elastic.ap(1, target)
            engine.kernel.run(
                until=engine.now + 1e5,
                stop_when=lambda: result.completed_at is not None or query.finished,
            )
            switches.append(result)
        except TuningRejected as exc:
            rejected.append((target, exc.reason))
    # A final, late request: let the query get close to done first.
    engine.kernel.run(
        until=engine.now + 1e5,
        stop_when=lambda: query.finished
        or (
            (r := elastic.remaining_time(1)) is not None
            and 0 < r < query.stages[1].max_build_seconds()
        ),
    )
    if not query.finished:
        try:
            elastic.ap(1, 8)
        except TuningRejected as exc:
            rejected.append((8, exc.reason))
    engine.run_until_done(query, 1e6)

    emit_stage_curves(
        "Figure 26: Q2J stage throughput under DOP switching",
        query,
        stages=[1, 2, 3],
    )
    for s in switches:
        case = f"{s.request.target // 2 * 2 - 2 or 2} → {s.request.target}"
        record("Table 2", case, "total", s.total_seconds)
        record("Table 2", case, "shuffle", s.shuffle_seconds)
        record("Table 2", case, "build", s.build_seconds)
    reduction = 100.0 * (1 - query.elapsed / untuned.elapsed_seconds)
    record("Figure 26", "Q2J", "untuned", untuned.elapsed_seconds, digits=1)
    record("Figure 26", "Q2J", "tuned", query.elapsed, digits=1)
    record("Figure 26", "Q2J", "reduction", reduction, "%", 1, paper=56.16)
    record("Figure 26", "Q2J", "rejected", len(rejected), "", 0)

    # Correctness under switching.
    assert norm_rows(query.result().rows) == norm_rows(untuned.rows)
    # Both switches were applied and completed.
    assert len(switches) == 2
    for s in switches:
        assert s.total_seconds is not None and s.total_seconds > 0
        assert s.shuffle_seconds > 0 and s.build_seconds > 0
        assert s.total_seconds >= s.shuffle_seconds
    # Table 2 trend: switching to a higher DOP transfers state faster.
    assert switches[1].total_seconds < switches[0].total_seconds * 1.3
    # Substantial overall reduction (paper: 56.16%).
    assert reduction > 25.0
    # The late request was rejected by the filter.
    assert any(reason == "remaining-lt-build" for _, reason in rejected) or query.finished
    # Rebuild markers (yellow dashed lines) recorded for each switch.
    assert len(query.tracker.markers_of("build_ready")) >= 4
