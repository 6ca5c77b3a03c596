"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Runtime elastic buffers vs fixed-capacity buffers** (paper Section 2,
   challenge 3 / Section 4.2.2): fixed small buffers throttle the
   pipeline; fixed large buffers are workable but the elastic buffer
   matches their performance while starting at a single page.
2. **Broadcast vs partitioned join** for a large build side (the choice
   the planner's distribution threshold automates).
3. **Partial TopN pushdown** (physical planner option): bounding what
   flows into the single-task stage-0 sort.
"""

from repro import AccordionEngine, BufferConfig, CostModel, EngineConfig, QueryOptions, TPCH_QUERIES as QUERIES

from conftest import norm_rows


def engine_with(catalog, buffers=None, page_rows=256, **options):
    config = EngineConfig(
        cost=CostModel().scaled(1000.0),
        page_row_limit=page_rows,
        buffers=buffers or BufferConfig(),
    )
    return AccordionEngine(catalog, config=config)


def test_ablation_elastic_vs_fixed_buffers(record, small_catalog):
    configs = {
        "elastic (1 page start)": BufferConfig(elastic=True),
        "fixed tiny (4 pages)": BufferConfig(
            elastic=False, fixed_capacity_bytes=4 * 16 * 1024
        ),
        "fixed large (32MB)": BufferConfig(elastic=False),
    }
    results = {}
    for label, buffers in configs.items():
        engine = engine_with(small_catalog, buffers=buffers)
        result = engine.execute(
            QUERIES["Q3"],
            QueryOptions(initial_stage_dop=2, initial_task_dop=2),
            max_virtual_seconds=1e6,
        )
        results[label] = (result.elapsed_seconds, norm_rows(result.rows))
        record("Ablation: buffers", label, "time", result.elapsed_seconds)

    rows = [r for _, r in results.values()]
    assert rows[0] == rows[1] == rows[2]

    elastic_t = results["elastic (1 page start)"][0]
    tiny_t = results["fixed tiny (4 pages)"][0]
    large_t = results["fixed large (32MB)"][0]
    # The elastic buffer tracks the generous fixed configuration...
    assert elastic_t < 1.4 * large_t
    # ...while a starved fixed buffer is no faster than elastic (the
    # paper's challenge-3 argument that capacity must adapt).
    assert tiny_t >= 0.9 * elastic_t


def test_ablation_join_distribution(record, small_catalog):
    """Broadcast replicates the build side to every join task (more build
    work, no probe reshuffle); partitioned splits the hash table (1/n build
    work per task, but the probe stream must be hash-shuffled).  The
    ablation surfaces exactly that trade-off."""

    def run(mode, dop):
        engine = engine_with(small_catalog)
        query = engine.submit(
            QUERIES["Q2J"],
            QueryOptions(join_distribution=mode, initial_stage_dop=dop),
        )
        engine.run_until_done(query, 1e6)
        return query

    results = {}
    for mode in ("broadcast", "partitioned"):
        for dop in (1, 4):
            query = run(mode, dop)
            t_build = query.stages[1].max_build_seconds()
            results[(mode, dop)] = (query.elapsed, t_build, norm_rows(query.result().rows))
            record("Ablation: join", f"{mode} DOP {dop}", "time", query.elapsed)
            record("Ablation: join", f"{mode} DOP {dop}", "max T_build", t_build)

    assert len({tuple(r) for (_, _, r) in results.values()}) == 1  # same answers
    # Per-task hash-table build is much cheaper when partitioned: each of
    # the 4 tasks builds ~1/4 of the table instead of all of it.
    assert (
        results[("partitioned", 4)][1] < 0.6 * results[("broadcast", 4)][1]
    )
    # End-to-end the two modes stay in the same ballpark at this shape —
    # the build saving is offset by the probe-side shuffle work.
    ratio = results[("partitioned", 4)][0] / results[("broadcast", 4)][0]
    assert 0.6 < ratio < 1.6


def test_ablation_partial_topn_pushdown(record, small_catalog):
    def walk(node):
        yield node
        for child in node.children():
            yield from walk(child)

    topn_sql = (
        "select l_orderkey, l_extendedprice from lineitem "
        "order by l_extendedprice desc limit 10"
    )

    def count_partials(partial_pushdown):
        engine = engine_with(small_catalog)
        plan = engine.coordinator.plan_sql(
            topn_sql, QueryOptions(partial_pushdown=partial_pushdown)
        )
        return sum(
            1
            for f in plan.fragments.values()
            for n in walk(f.root)
            if n.__class__.__name__ == "PTopNNode" and n.partial
        )

    on = count_partials(True)
    off = count_partials(False)
    record("Ablation: TopN", "pushdown on", "partial TopN", on, "", 0)
    record("Ablation: TopN", "pushdown off", "partial TopN", off, "", 0)

    # The optimization must not change the answer.
    results = {}
    for label, pushdown in (("on", True), ("off", False)):
        engine = engine_with(small_catalog)
        results[label] = norm_rows(
            engine.submit(topn_sql, QueryOptions(partial_pushdown=pushdown))
            .result(max_virtual_seconds=1e6)
            .rows
        )
    assert on >= 1 and off == 0
    assert results["on"] == results["off"]
