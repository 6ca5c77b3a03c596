"""Tests for the physical planner, fragments, and pipeline splitting."""

import pytest

from repro import QueryOptions
from repro.buffers import OutputMode
from repro.data.tpch.queries import QUERIES
from repro.plan import LogicalPlanner, prune_columns
from repro.plan.physical import (
    PFinalAggNode,
    PJoinNode,
    POutputNode,
    PPartialAggNode,
    PScanNode,
    PTaskOutputNode,
    PTopNNode,
)
from repro.plan import physical_planner
from repro.plan.physical_planner import PhysicalPlanner
from repro.plan.pipelines import fragment_pipelines
from repro.sql.parser import parse


@pytest.fixture(scope="module")
def lp(catalog):
    return LogicalPlanner(catalog)


def phys(catalog, lp, sql, **options):
    logical = prune_columns(lp.plan(parse(sql)))
    return PhysicalPlanner(catalog, QueryOptions(**options)).plan(logical)


def walk_nodes(node):
    yield node
    for child in node.children():
        yield from walk_nodes(child)


# -- fragment shapes ----------------------------------------------------------
def test_stage_zero_is_output(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q6"])
    assert isinstance(plan.root.root, POutputNode)
    assert plan.root.dop_fixed


def test_q3_stage_layout_matches_paper(catalog, lp):
    """Figure 21: S0 output, S1 join<-S2 lineitem scan, S3 join<-S4 orders,
    S5 customer build."""
    plan = phys(catalog, lp, QUERIES["Q3"])
    assert len(plan.fragments) == 6
    assert plan.fragment(2).source_table == "lineitem"
    assert plan.fragment(4).source_table == "orders"
    assert plan.fragment(5).source_table == "customer"
    s1 = plan.fragment(1)
    assert s1.probe_child == 2
    assert s1.build_children == [3]
    s3 = plan.fragment(3)
    assert s3.probe_child == 4
    assert s3.build_children == [5]


def test_scan_stages_are_sources(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q3"])
    for fragment in plan.fragments.values():
        if fragment.source_table:
            assert any(isinstance(n, PScanNode) for n in walk_nodes(fragment.root))


def test_partial_and_final_aggregation_split(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q1"])
    # Partial agg lives in the scan stage, final agg in the dop-1 stage 0.
    stage0_nodes = list(walk_nodes(plan.fragment(0).root))
    stage1_nodes = list(walk_nodes(plan.fragment(1).root))
    assert any(isinstance(n, PFinalAggNode) for n in stage0_nodes)
    assert any(isinstance(n, PPartialAggNode) for n in stage1_nodes)
    assert plan.fragment(0).dop_fixed
    assert not plan.fragment(1).dop_fixed


def test_topn_partial_pushdown(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q3"])
    partials = [
        n
        for f in plan.fragments.values()
        for n in walk_nodes(f.root)
        if isinstance(n, PTopNNode) and n.partial
    ]
    finals = [
        n
        for f in plan.fragments.values()
        for n in walk_nodes(f.root)
        if isinstance(n, PTopNNode) and not n.partial
    ]
    assert finals and len(finals) == 1


def test_broadcast_join_output_modes(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q3"])
    s1 = plan.fragment(1)
    probe_frag = plan.fragment(s1.probe_child)
    build_frag = plan.fragment(s1.build_children[0])
    assert probe_frag.output.mode is OutputMode.ARBITRARY
    assert build_frag.output.mode is OutputMode.BROADCAST
    assert build_frag.output.cache  # intermediate data caching


def test_partitioned_join_output_modes(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q2J"], join_distribution="partitioned")
    s1 = plan.fragment(1)
    join = next(n for n in walk_nodes(s1.root) if isinstance(n, PJoinNode))
    assert join.distribution == "partitioned"
    for child_id in s1.children:
        assert plan.fragment(child_id).output.mode is OutputMode.HASH


def test_semi_join_always_broadcast(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q4"], join_distribution="partitioned")
    joins = [
        n
        for f in plan.fragments.values()
        for n in walk_nodes(f.root)
        if isinstance(n, PJoinNode) and n.join_type.value == "semi"
    ]
    assert joins and all(j.distribution == "broadcast" for j in joins)


def test_shuffle_stage_insertion(catalog, lp):
    plan = phys(
        catalog,
        lp,
        QUERIES["QSHUFFLE"],
        join_distribution="partitioned",
        shuffle_stage_tables=frozenset({"orders"}),
    )
    shuffle_stages = [f for f in plan.fragments.values() if f.is_shuffle_stage]
    assert len(shuffle_stages) == 1
    shuffle = shuffle_stages[0]
    assert shuffle.output.mode is OutputMode.HASH
    # The shuffle stage reads the scan stage through an arbitrary exchange.
    scan = plan.fragment(shuffle.children[0])
    assert scan.source_table == "orders"
    assert scan.output.mode is OutputMode.ARBITRARY


def test_auto_distribution_threshold(catalog, lp, monkeypatch):
    small = phys(catalog, lp, QUERIES["Q2J"])
    joins = [
        n
        for f in small.fragments.values()
        for n in walk_nodes(f.root)
        if isinstance(n, PJoinNode)
    ]
    assert joins[0].distribution == "broadcast"
    monkeypatch.setattr(physical_planner, "BROADCAST_THRESHOLD_ROWS", 1)
    large = phys(catalog, lp, QUERIES["Q2J"])
    joins = [
        n
        for f in large.fragments.values()
        for n in walk_nodes(f.root)
        if isinstance(n, PJoinNode)
    ]
    assert joins[0].distribution == "partitioned"


def test_bottom_up_order(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q3"])
    order = [f.id for f in plan.bottom_up()]
    for fragment in plan.fragments.values():
        for child in fragment.children:
            assert order.index(child) < order.index(fragment.id)
    assert order[-1] == 0


def test_parents_of(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q3"])
    assert plan.parents_of(2) == [1]
    assert plan.parents_of(0) == []


def test_describe_renders(catalog, lp):
    text = phys(catalog, lp, QUERIES["Q3"]).describe()
    assert "Stage 0" in text and "TableScan[lineitem]" in text


# -- pipelines -----------------------------------------------------------------
def test_join_fragment_pipelines(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q3"])
    layout = fragment_pipelines(plan.fragment(1))
    kinds = [(p.source.kind, p.sink.kind) for p in layout.pipelines]
    # Figure 7: build-feed pipeline, build pipeline, probe/output pipeline.
    assert kinds == [
        ("exchange", "local_exchange"),
        ("local_exchange", "join_build"),
        ("exchange", "task_output"),
    ]
    assert not layout.pipelines[1].tunable
    assert layout.pipelines[2].tunable
    assert len(layout.bridges) == 1


def test_scan_fragment_pipeline(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q3"])
    layout = fragment_pipelines(plan.fragment(2))
    assert len(layout.pipelines) == 1
    assert layout.pipelines[0].source.kind == "scan"
    assert layout.pipelines[0].source.table == "lineitem"
    assert layout.pipelines[0].source.column_indexes is not None


def test_stage0_pipeline_ends_at_coordinator(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q1"])
    layout = fragment_pipelines(plan.fragment(0))
    assert layout.pipelines[-1].sink.kind == "coordinator"


def test_exchange_children_recorded(catalog, lp):
    plan = phys(catalog, lp, QUERIES["Q3"])
    layout = fragment_pipelines(plan.fragment(1))
    assert set(layout.exchange_children) == {2, 3}
