"""Figure 23: Q3's raw per-stage throughput curves with every stage at
parallelism 1 (stages 0 and 5 omitted — negligible throughput / brief).

Paper shapes: the lineitem scan (S2) sustains the highest processing rate
and spans the whole query; S3 (orders x customer) finishes early; S1 is
the long-running computational bottleneck; execution-dependent stages
(S1 waits for S3's hash table) start streaming later.
"""

from repro import AccordionEngine, CostModel, EngineConfig, TPCH_QUERIES as QUERIES

from conftest import emit_stage_curves


def test_fig23_q3_raw_stage_throughput(record, small_catalog):
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    engine = AccordionEngine(small_catalog, config=config)
    query = engine.submit(QUERIES["Q3"])
    engine.run_until_done(query, 1e6)
    emit_stage_curves(
        "Figure 23: Q3 raw stage throughput (stage parallelism 1)",
        query,
        stages=[1, 2, 3, 4],
    )

    rates = {s: query.tracker.processing_rate(s) for s in (1, 2, 3, 4)}
    peak = {s: max(r.values, default=0.0) for s, r in rates.items()}
    for stage_id, rate in peak.items():
        record("Figure 23", f"S{stage_id}", "peak rate", rate, "rows/s", 0)

    # Every plotted stage processed data.
    for stage_id in (1, 2, 3, 4):
        assert peak[stage_id] > 0, stage_id

    # S2 (lineitem scan) has the highest raw throughput.
    assert peak[2] >= max(peak[1], peak[3], peak[4])

    def active_span(series):
        times = [t for t, v in zip(series.times, series.values) if v > 0]
        return (min(times), max(times)) if times else (0.0, 0.0)

    s1_span = active_span(rates[1])
    s3_span = active_span(rates[3])
    s2_span = active_span(rates[2])
    # Execution dependency: S1 starts streaming only after S3's build-side
    # work is underway, and S3 finishes well before S1 does.
    assert s3_span[1] < s1_span[1]
    assert s1_span[0] >= s3_span[0]
    # The lineitem scan spans (almost) the whole query duration.
    assert s2_span[1] > 0.8 * query.elapsed
