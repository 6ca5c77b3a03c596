"""Table 1: TPC-H table setup — partitioning scheme, table and split sizes.

Paper: 107 GB total at SF100 across 10 storage nodes; lineitem gets
7 splits per node.  We reproduce the same scheme at reduced scale and
check the structural facts (node counts, splits per node, size ordering).
"""

from repro import SplitLayout


def test_table1_partitioning_scheme(record, eval_catalog):
    layout = SplitLayout(eval_catalog, storage_nodes=10)
    splits = {t.capitalize(): layout.splits(t) for t in layout.scheme}
    sizes = {t: eval_catalog.table(t.lower()).size_bytes for t in splits}
    total = sum(sizes.values())
    for table, parts in splits.items():
        nodes = len({s.storage_node for s in parts})
        record("Table 1", table, "nodes", nodes, "", 0)
        record("Table 1", table, "splits/node", len(parts) // nodes, "", 0)
        record("Table 1", table, "size", sizes[table] / 1024, "KB")
        record("Table 1", table, "share", 100 * sizes[table] / total, "%", 1)

    by_table = {r["table"]: r for r in layout.setup_report()}
    assert by_table["Nation"]["partitioning"] == "1 node, 1 split/node"
    assert by_table["Region"]["partitioning"] == "1 node, 1 split/node"
    assert by_table["Lineitem"]["partitioning"] == "10 nodes, 7 split/node"
    for table in ("Supplier", "Part", "Partsupp", "Customer", "Orders"):
        assert by_table[table]["partitioning"] == "10 nodes, 1 split/node"

    # Size ordering matches the paper: lineitem > orders > partsupp > ...
    assert sizes["Lineitem"] > sizes["Orders"] > sizes["Partsupp"]
    assert sizes["Partsupp"] > sizes["Customer"] > sizes["Supplier"]
    # Lineitem dominates the database (paper: 74 GB of 107 GB).
    assert 0.5 < sizes["Lineitem"] / total < 0.85
