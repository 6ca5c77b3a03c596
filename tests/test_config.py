"""Tests for configuration objects and baseline engine modes."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro.config
from repro import AccordionEngine, QueryOptions, TPCH_QUERIES
from repro.buffers.elastic import INITIAL_CAPACITY_PAGES
from repro.cluster.node import Node
from repro.config import (
    BufferConfig,
    ClusterConfig,
    CostModel,
    EngineConfig,
    ParallelConfig,
    presto_config,
    prestissimo_config,
)
from repro.sim import SimKernel


def test_cost_multipliers_compose():
    base = CostModel()
    assert base.cpu_multiplier == 1.0
    scaled = base.scaled(100.0)
    assert scaled.cpu_multiplier == 100.0
    stacked = scaled.scaled(2.6)
    assert stacked.cpu_multiplier == pytest.approx(260.0)
    # Non-multiplier fields are preserved.
    assert stacked.scan_row_cost == base.scan_row_cost


def test_cost_model_is_frozen():
    with pytest.raises(Exception):
        CostModel().cpu_multiplier = 5.0  # type: ignore[misc]


def test_node_spec_nic_bandwidth():
    """Every node has the c5.2xlarge shape: 8 vCPUs and a 10 Gbps NIC."""
    node = Node(SimKernel(), 0, "compute")
    assert node.cpu.cores == 8
    assert node.nic.bytes_per_second == pytest.approx(1.25e9)


def test_engine_config_with_cluster():
    config = EngineConfig().with_cluster(compute_nodes=3, storage_nodes=2)
    assert config.cluster.compute_nodes == 3
    assert config.cluster.storage_nodes == 2
    # Original untouched (frozen dataclasses).
    assert EngineConfig().cluster.compute_nodes == 10


def test_presto_config_shape(tiny_catalog):
    base = EngineConfig(cost=CostModel().scaled(100.0))
    presto = presto_config(base)
    assert presto.engine_name == "presto"
    assert not presto.elasticity_enabled
    assert not presto.buffers.elastic
    # Intermediate data caching goes with elasticity: no build side caches.
    plan = AccordionEngine(tiny_catalog, config=presto).coordinator.plan_sql(
        TPCH_QUERIES["Q3"], QueryOptions()
    )
    assert not any(f.output.cache for f in plan.fragments.values())
    # Java multiplier stacks on the calibration multiplier.
    assert presto.cost.cpu_multiplier == pytest.approx(260.0)


def test_prestissimo_config_shape():
    pr = prestissimo_config()
    assert pr.engine_name == "prestissimo"
    assert not pr.elasticity_enabled
    assert 0.5 < pr.cost.cpu_multiplier < 1.5


def test_buffer_config_defaults():
    buffers = BufferConfig()
    assert buffers.elastic
    assert INITIAL_CAPACITY_PAGES == 1  # paper: one page
    assert buffers.fixed_capacity_bytes == 32 * 1024 * 1024  # Presto default


def test_cluster_config_defaults_match_paper():
    cluster = ClusterConfig()
    assert cluster.compute_nodes == 10
    assert cluster.storage_nodes == 10


# -- config hierarchy: builders + fingerprints --------------------------------
def test_uniform_section_builders():
    config = (
        EngineConfig()
        .with_cost(cpu_multiplier=3.0)
        .with_buffers(elastic=False)
        .with_memory(spill_enabled=False)
        .with_workload(max_concurrent_queries=2, queue_policy="priority")
        .with_cluster(compute_nodes=4)
        .with_tracing()
    )
    assert config.cost.cpu_multiplier == 3.0
    assert not config.buffers.elastic
    assert not config.memory.spill_enabled
    assert config.workload.max_concurrent_queries == 2
    assert config.workload.queue_policy == "priority"
    assert config.cluster.compute_nodes == 4
    assert config.tracing.enabled
    # Builders never mutate their receiver.
    assert EngineConfig().workload.max_concurrent_queries is None


def test_every_section_has_a_fingerprint():
    from repro import WorkloadConfig
    from repro.config import MemoryConfig, PredictionConfig, TraceConfig

    sections = [
        EngineConfig(),
        ClusterConfig(),
        CostModel(),
        BufferConfig(),
        MemoryConfig(),
        TraceConfig(),
        WorkloadConfig(),
        PredictionConfig(),
    ]
    for section in sections:
        fp = section.fingerprint()
        assert isinstance(fp, tuple) and hash(fp) is not None
        assert fp == type(section)().fingerprint()  # deterministic


def test_fingerprint_changes_with_any_field():
    base = EngineConfig()
    assert base.fingerprint() != base.with_cost(cpu_multiplier=2.0).fingerprint()
    assert base.fingerprint() != base.with_workload(priority_aging_rate=0.5).fingerprint()
    assert (
        base.cluster.fingerprint()
        != base.with_cluster(compute_nodes=3).cluster.fingerprint()
    )


def test_query_options_fingerprint_uses_config_fingerprint():
    from repro import QueryOptions, config_fingerprint

    a = QueryOptions(initial_stage_dop=2)
    assert a.fingerprint() == config_fingerprint(a)
    assert a.fingerprint() == QueryOptions(initial_stage_dop=2).fingerprint()
    assert a.fingerprint() != QueryOptions(partial_pushdown=False).fingerprint()


#: Config classes whose fields no engine component reads on purpose:
#: ``ParallelConfig`` stays only because ``bench/`` constructs it, until
#: the ``benchmark`` item of ROADMAP.md (1(e)) detaches ``bench/`` from it.
UNREAD_BY_DESIGN = {ParallelConfig}


def test_every_config_field_is_read_somewhere():
    """No dead knob: every field of every dataclass in ``repro.config``
    is read as an attribute (``x.field``) somewhere under ``src/repro``.
    A field's own declaration is an annotated name, not an attribute, so
    it never counts as its read."""
    src = Path(repro.__file__).parent
    reads = {
        node.attr
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    classes = [
        cls for _, cls in inspect.getmembers(repro.config, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == "repro.config"
    ]
    assert len(classes) == 10
    unread = {
        f"{cls.__name__}.{f.name}"
        for cls in classes if cls not in UNREAD_BY_DESIGN
        for f in dataclasses.fields(cls) if f.name not in reads
    }
    assert unread == set()
