"""Fault recovery: kill a compute node mid-query, get the exact answer.

Runs TPC-H Q3 twice on identical simulated clusters — once undisturbed and
once with a compute node crashing about 40% of the way through — and shows
that the faulted run recovers to a bit-identical result via task respawn,
at the cost of retried tasks and extra control-plane RPC.

    python examples/fault_recovery.py
"""

from repro import (
    AccordionEngine,
    Catalog,
    CostModel,
    EngineConfig,
    NodeCrash,
    Plan,
    TPCH_QUERIES,
)

SQL = TPCH_QUERIES["Q3"]


def build_engine(catalog: Catalog) -> AccordionEngine:
    # Stretch the cost model so the query runs long enough (in virtual
    # time) for a mid-flight crash to land on running tasks.
    config = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
    return AccordionEngine(catalog, config=config)


def main() -> None:
    print("Generating TPC-H data and starting the simulated cluster...")
    catalog = Catalog.tpch(scale=0.005)

    # -- run 1: no faults ------------------------------------------------
    baseline = build_engine(catalog)
    clean = baseline.execute(SQL)
    print(f"\nclean run:   {clean.num_rows} rows in {clean.elapsed_seconds:.2f}s "
          f"({baseline.coordinator.rpc.total_requests} RPC requests)")

    # -- run 2: compute1 dies mid-query ----------------------------------
    engine = build_engine(catalog)
    crash_at = clean.elapsed_seconds * 0.4
    plan = Plan(events=(NodeCrash(at=crash_at, node="compute1"),))
    engine.apply(plan)
    # The plan is script text too: run_script reads these lines back.
    print("\ninjecting:\n" + plan.describe())

    handle = engine.submit(SQL)
    faulted = handle.result()
    print(f"faulted run: {faulted.num_rows} rows in {faulted.elapsed_seconds:.2f}s "
          f"({engine.coordinator.rpc.total_requests} RPC requests)")

    identical = sorted(clean.rows) == sorted(faulted.rows)
    print(f"\nresults bit-identical to the undisturbed run: {identical}")
    assert identical, "recovery must not change query answers"

    extra_rpc = (
        engine.coordinator.rpc.total_requests
        - baseline.coordinator.rpc.total_requests
    )
    slowdown = faulted.elapsed_seconds - clean.elapsed_seconds
    print(f"recovery cost: +{slowdown:.2f}s virtual time, +{extra_rpc} RPC requests")

    print("\nfault report:")
    print(handle.fault_report())


if __name__ == "__main__":
    main()
