"""CSV-backed workflow, matching the paper's storage setup (Section 6.1).

The paper stores TPC-H tables as CSV files read through the Arrow CSV
reader.  This example writes a generated database to disk as
``|``-separated files, loads it back into a fresh catalog, and queries it
on a custom cluster shape with the orders table pinned to two storage
nodes (the Section 6.4.2 configuration).

    python examples/csv_workflow.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from repro import (
    AccordionEngine,
    Catalog,
    EngineConfig,
    QueryOptions,
    TPCH_SCHEMAS,
    TpchGenerator,
    read_csv,
    write_csv,
)


def run(workdir: Path) -> None:
    print(f"Writing TPC-H CSV files to {workdir}")

    generator = TpchGenerator(scale=0.005)
    for name in ("nation", "region", "customer", "orders"):
        path = write_csv(generator.table(name), workdir / f"{name}.tbl")
        print(f"  {path.name}: {path.stat().st_size / 1024:.1f} KiB")

    print("\nLoading the CSV files into a fresh catalog...")
    catalog = Catalog()
    for name in ("nation", "region", "customer", "orders"):
        catalog.register(read_csv(name, TPCH_SCHEMAS[name], workdir / f"{name}.tbl"))

    # Pin orders to two storage nodes — the shuffle-bottleneck layout.
    config = EngineConfig()
    config = replace(
        config,
        cluster=config.cluster.with_placement(node_overrides={"orders": [0, 1]}),
    )
    engine = AccordionEngine(catalog, config=config)

    result = engine.execute(
        """
        select n_name, count(*) as orders_placed
        from orders, customer, nation
        where o_custkey = c_custkey and c_nationkey = n_nationkey
        group by n_name
        order by orders_placed desc
        limit 5
        """,
        QueryOptions(scan_stage_dop=2),
    )
    print(f"\nTop nations by orders (virtual time {result.elapsed_seconds:.2f}s):")
    for name, count in result.rows:
        print(f"  {name:<15} {count}")

    splits = engine.split_layout.splits("orders")
    print(f"\norders splits live on storage nodes "
          f"{sorted({s.storage_node for s in splits})} (pinned)")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="accordion_tpch_") as workdir:
        run(Path(workdir))


if __name__ == "__main__":
    main()
