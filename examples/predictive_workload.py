"""Predictive resource management: learned demand profiles in action.

The engine keys every query to a template fingerprint (literals
parameterized out), records per-stage demand — CPU seconds, peak
tracked memory, exchange bytes, activity windows — for each completed
run, and uses the accumulated profiles three ways:

1. ``engine.predict(sql)`` returns the template's demand profile and a
   runtime estimate with variance — a first-class, frozen object.
2. Admission pre-grants per-stage DOPs and a memory budget sized from
   the prediction, so a familiar query starts at the right width
   instead of ramping up reactively.
3. With ``max_miss_probability`` set, a deadline the prediction says is
   hopeless is rejected up front with the prediction attached.

    python examples/predictive_workload.py
"""

from repro import (
    AccordionEngine,
    Catalog,
    CostModel,
    EngineConfig,
    PoissonArrivals,
    QueryRejectedError,
    Workload,
)

#: One analyst query template; the literal varies per submission but
#: every variant shares a single demand-history fingerprint.
TEMPLATE = (
    "select l_returnflag, count(*), sum(l_quantity) from lineitem "
    "where l_quantity > {lit} group by l_returnflag order by l_returnflag"
)


def main() -> None:
    catalog = Catalog.tpch(scale=0.005, seed=7)
    config = EngineConfig(cost=CostModel().scaled(500.0)).with_prediction(
        max_miss_probability=0.5
    )
    engine = AccordionEngine(catalog, config=config)

    print("1) Warm the template's demand history")
    for lit in (10, 20, 30):
        engine.submit(TEMPLATE.format(lit=lit)).result()
    recorded = engine.decisions.of(kind="history")
    print(f"   recorded {len(recorded)} runs across "
          f"{len({d.inputs['template'] for d in recorded})} template(s)\n")

    print("2) Predict an unseen literal variant of the same template")
    prediction = engine.predict(TEMPLATE.format(lit=42))
    print("   " + prediction.describe().replace("\n", "\n   ") + "\n")

    print("3) A deadline session pre-grants width and memory up front")
    session = engine.session("analysts", deadline=prediction.runtime * 4)
    handle = session.submit(TEMPLATE.format(lit=25))
    execution = handle.execution
    print(f"   pre-granted stage DOPs: {execution.options.stage_dops}")
    print(f"   pre-granted memory budget: "
          f"{execution.memory.budget_bytes / 2**20:.0f} MiB")
    handle.result()
    print(f"   finished; prediction error "
          f"{handle.prediction_error:.1%} of estimate\n")

    print("4) A hopeless deadline is rejected at admission, not at miss")
    doomed = engine.session("analysts", deadline=prediction.runtime / 10)
    rejected = doomed.submit(TEMPLATE.format(lit=25))
    try:
        rejected.result()
    except QueryRejectedError as error:
        print(f"   rejected: {error}")
        print(f"   carried prediction: runtime {error.prediction.runtime:.3f}s\n")

    print("5) The workload report carries the predictor's window deltas")
    workload = Workload(engine, seed=7)
    workload.add_tenant(
        "analysts",
        [TEMPLATE.format(lit=lit) for lit in (5, 15, 35)],
        PoissonArrivals(rate=10.0, count=3),
        deadline=prediction.runtime * 20,
    )
    report = workload.run()
    print("   " + report.render().replace("\n", "\n   "))


if __name__ == "__main__":
    main()
