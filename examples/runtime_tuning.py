"""Intra-query runtime elasticity, hands on.

Submits TPC-H Q3 at minimal parallelism, then plays the role of the user
at Accordion's controller UI (paper Figure 2):

1. inspect the runtime bottleneck localization,
2. ask the what-if service what a DOP change would buy,
3. apply intra-task ("AC") and intra-stage ("AP") adjustments mid-query,
4. watch per-stage throughput respond — all without pausing the query.

    python examples/runtime_tuning.py
"""

from repro import (
    AccordionEngine,
    CostModel,
    EngineConfig,
    TPCH_QUERIES,
    TuningRejected,
    render_series,
)


def main() -> None:
    # Stretch virtual time so the query runs long enough to be tuned
    # (the paper's SF100 queries run for minutes; see DESIGN.md).
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    engine = AccordionEngine.tpch(scale=0.01, config=config)

    query = engine.submit(TPCH_QUERIES["Q3"])
    elastic = query.tuning
    print("Q3 submitted; distributed plan:")
    print(query.plan.describe())

    # Let it warm up, then look for the computational bottleneck.
    engine.run_for(5.0)
    print(f"\nAt t={engine.now:.0f}s the bottlenecks are:")
    for b in elastic.bottlenecks():
        print(f"  stage {b.stage}: {b.kind} ({b.detail})")

    # What would raising stage 1 to DOP 4 buy us?
    prediction = elastic.estimate(1, 4)
    if prediction:
        print(f"\nWhat-if: {prediction.describe()}")

    # Intra-task tuning first: more drivers inside the existing tasks.
    print("\nAC S3 -> 2 (add drivers to the orders-side join task)")
    try:
        elastic.ac(3, 2)
    except TuningRejected as exc:
        print(f"  rejected: {exc}")

    engine.run_for(3.0)

    # Intra-stage tuning: spawn new tasks; hash tables rebuild from the
    # intermediate data cache while the old tasks keep probing.
    print("AP S1 -> 4 (add tasks to the lineitem-side join stage)")
    try:
        elastic.ap(1, 4)
    except TuningRejected as exc:
        print(f"  rejected: {exc}")

    engine.run_until_done(query)
    print(f"\nFinished in {query.elapsed:.1f} virtual seconds; "
          f"{query.result_rows} result rows.")

    print("\nPer-stage processing throughput (rows/s):")
    for stage_id in (1, 2, 3):
        series = query.tracker.processing_rate(stage_id)
        print(" ", render_series(series, label=f"S{stage_id}"))
    print("\nTuning timeline:")
    for marker in query.tracker.markers:
        print(f"  t={marker.time:6.1f}s  {marker.kind:<12} stage {marker.stage} {marker.reason}")


if __name__ == "__main__":
    main()
