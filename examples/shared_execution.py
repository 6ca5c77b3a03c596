"""Shared execution: query folding + the result cache (DESIGN.md §14).

A dashboard fleet keeps asking near-identical questions.  With
``EngineConfig.with_sharing()`` the engine folds concurrent lookalikes
onto one physical execution (per-consumer *residual* operators derive
each answer from the shared stream) and serves exact repeats straight
from a fingerprint-keyed result cache — while every answer stays
bit-identical to an isolated run.

The walkthrough shows:

1. ``engine.submit_many`` dispatching a batch inside one fold window —
   one carrier, the lookalikes folded onto it (``QueryHandle.sharing``);
2. a narrower query folding via a residual filter, and an aggregation
   opening its own group, which its exact repeat folds onto;
3. a repeat submission answered from the result cache, and
   ``Catalog.register`` invalidating it;
4. the payoff: effective QPS of a seeded two-tenant burst, sharing off
   vs on.

    python examples/shared_execution.py
"""

from repro import (
    AccordionEngine,
    Catalog,
    EngineConfig,
    PoissonArrivals,
    Workload,
)

SCALE = 0.01
SEED = 20250807

BROAD = "select l_orderkey, l_quantity from lineitem where l_quantity < 10"
NARROW = (
    "select l_orderkey from lineitem "
    "where l_quantity < 10 and l_orderkey < 1000"
)
AGG = (
    "select l_returnflag, count(*), min(l_quantity) from lineitem "
    "where l_quantity < 30 group by l_returnflag"
)


def main() -> None:
    catalog = Catalog.tpch(scale=SCALE, seed=SEED)
    isolated = AccordionEngine(catalog)

    config = EngineConfig().with_sharing(fold_window=0.05)
    engine = AccordionEngine(catalog, config=config)

    # -- 1-2. submit_many: one batch, one fold window ------------------------
    print("Submitting a dashboard batch through submit_many...")
    handles = engine.submit_many([BROAD, BROAD, NARROW, AGG, AGG])
    for handle in handles:
        rows = handle.result().rows
        assert rows == isolated.execute(handle.sql).rows, "answer diverged"
        print(f"  Q{handle.id} {str(handle.sharing):<42} {handle.sql[:48]}")
    folds = engine.decisions.of(kind="sharing", outcome="fold")
    assert len(folds) >= 3, folds  # one repeat + NARROW + one AGG repeat
    saved = sum(d.inputs["pages_saved"] for d in folds)
    print(f"  -> {len(folds)} folds, {saved} scan pages saved")

    # -- 3. result cache ------------------------------------------------------
    print("\nRepeating a query after the batch finished...")
    hit = engine.submit(BROAD)
    assert hit.finished and hit.sharing.role == "cached", hit.sharing
    assert hit.result().rows == isolated.execute(BROAD).rows
    print(f"  Q{hit.id} {hit.sharing}")

    catalog.register(catalog.table("nation"))  # catalog change -> stale keys
    miss = engine.submit(BROAD)
    miss.result()
    assert miss.sharing.role == "carrier", miss.sharing
    print(f"  after Catalog.register: Q{miss.id} re-ran as "
          f"{miss.sharing.role} (cache invalidated)")

    # -- 4. effective QPS, sharing off vs on ----------------------------------
    print("\nSeeded two-tenant burst, sharing off vs on...")

    def run_burst(sharing: bool):
        cfg = EngineConfig().with_workload(max_concurrent_queries=2)
        if sharing:
            cfg = cfg.with_sharing(fold_window=0.05)
        workload = Workload(AccordionEngine(catalog, config=cfg), seed=SEED)
        for tenant in ("bi", "dashboards"):
            workload.add_tenant(tenant, [BROAD, NARROW, AGG],
                                PoissonArrivals(rate=100.0, count=12))
        report = workload.run()
        return report, [h.result().rows for h in workload.handles]

    base, base_rows = run_burst(sharing=False)
    shared, shared_rows = run_burst(sharing=True)
    assert base_rows == shared_rows, "sharing changed an answer"
    speedup = shared.effective_qps / base.effective_qps
    print(f"  effective QPS {base.effective_qps:.2f} -> "
          f"{shared.effective_qps:.2f}  ({speedup:.2f}x, answers identical)")
    assert speedup > 1.5, speedup


if __name__ == "__main__":
    main()
