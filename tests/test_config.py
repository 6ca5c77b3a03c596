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
from repro.experiments import eval_config
from repro.sim import SimKernel


def test_cost_multipliers_compose():
    base = CostModel(shuffle_row_cost=1.0e-7)
    assert base.cpu_multiplier == 1.0
    scaled = base.scaled(100.0)
    assert scaled.cpu_multiplier == 100.0
    stacked = scaled.scaled(2.6)
    assert stacked.cpu_multiplier == pytest.approx(260.0)
    # The other field is preserved.
    assert stacked.shuffle_row_cost == base.shuffle_row_cost


@pytest.mark.parametrize(
    "build, field",
    [
        # Used to escape the event loop as the pool's "cost must be >= 0".
        (lambda: CostModel(shuffle_row_cost=-2.0e-7), "shuffle_row_cost"),
        # Used to finish Q6 with ``handle.elapsed == nan``.
        (lambda: CostModel().scaled(float("nan")), "cpu_multiplier"),
        # An infinite cost used to never finish (ExecutionError after 1e6
        # virtual s).
        (lambda: CostModel(shuffle_row_cost=float("inf")), "shuffle_row_cost"),
        (lambda: CostModel().scaled(0.0), "cpu_multiplier"),
        (lambda: eval_config(shuffle_row_cost=-1.0), "shuffle_row_cost"),
    ],
    ids=["negative_row_cost", "nan_multiplier", "inf_row_cost", "zero_multiplier", "negative_eval_override"],
)
def test_cost_model_rejects_a_bad_coefficient_when_built(build, field):
    with pytest.raises(ValueError, match=f"CostModel.{field} must be finite"):
        build()


def test_cost_model_accepts_zero_coefficients():
    free = CostModel(shuffle_row_cost=0.0).scaled(1000.0)
    assert free.shuffle_row_cost == 0.0 and free.cpu_multiplier == 1000.0


def test_fixed_coefficients_are_constants_not_fields():
    """Only ``cpu_multiplier`` and ``shuffle_row_cost`` are settable; the
    other coefficients are class constants no constructor or evaluation
    override can set."""
    assert [f.name for f in dataclasses.fields(CostModel)] == ["shuffle_row_cost", "cpu_multiplier"]
    assert CostModel().scaled(3.0).network_latency == CostModel.network_latency == 2.0e-4
    with pytest.raises(TypeError):
        CostModel(network_latency=0.0)
    with pytest.raises(TypeError):
        eval_config(quantum_overhead=0.0)


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


# -- config hierarchy: builders + options fingerprint ------------------------
def test_uniform_section_builders():
    config = (
        EngineConfig()
        .with_memory(query_budget_bytes=1 << 20)
        .with_workload(max_concurrent_queries=2, queue_policy="priority")
        .with_cluster(compute_nodes=4)
        .with_tracing()
    )
    assert config.memory.query_budget_bytes == 1 << 20
    assert config.workload.max_concurrent_queries == 2
    assert config.workload.queue_policy == "priority"
    assert config.cluster.compute_nodes == 4
    assert config.tracing.enabled
    # Builders never mutate their receiver.
    assert EngineConfig().workload.max_concurrent_queries is None


def test_query_options_fingerprint_is_its_identity():
    from repro import QueryOptions
    from repro.tree import identity

    a = QueryOptions(initial_stage_dop=2)
    assert a.fingerprint() == identity(a)
    assert a.fingerprint() == QueryOptions(initial_stage_dop=2).fingerprint()
    assert a.fingerprint() != QueryOptions(partial_pushdown=False).fingerprint()


def _config_classes() -> list[type]:
    return [
        cls for _, cls in inspect.getmembers(repro.config, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == "repro.config"
    ]


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
    classes = _config_classes()
    assert len(classes) == 10
    unread = {
        f"{cls.__name__}.{f.name}"
        for cls in classes if cls not in UNREAD_BY_DESIGN
        for f in dataclasses.fields(cls) if f.name not in reads
    }
    assert unread == set()


#: Fields no program sets, only tests, each with why it stays.
SET_ONLY_BY_TESTS = {
    "WorkloadConfig.queue_timeout": "drives the decisions golden's queue that times out",
    "PredictionConfig.history_dir": "a deployment path",
    "QueryOptions.broadcast_threshold_rows": "in PLAN_SHAPING: removing it changes every template id",
    "ParallelConfig.max_retries": "the class goes whole once bench/ stops constructing it",
}


def _set_names(roots: list[Path]) -> set[str]:
    """Names the code under ``roots`` sets: keyword arguments (calls,
    ``replace`` and builders), literal keys written to a mapping
    (``kwargs["k"] = v``, ``kwargs.setdefault("k", v)``) and attribute
    stores (``options.k = v``; not ``self.k = v``, which sets an
    attribute of the class being written, not of a config)."""
    names = set()
    for path in (p for root in roots for p in root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword):
                names.add(node.arg)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if getattr(node.value, "id", None) != "self":
                    names.add(node.attr)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if isinstance(node.slice, ast.Constant):
                    names.add(node.slice.value)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault":
                if node.args and isinstance(node.args[0], ast.Constant):
                    names.add(node.args[0].value)
    return names


def test_every_knob_has_a_setter():
    """No knob only tests turn: every field of the config tree and of
    ``QueryOptions`` is set somewhere under ``src/``, ``bench/``,
    ``benchmarks/`` or ``examples/``, or is in ``SET_ONLY_BY_TESTS``."""
    repo = Path(__file__).resolve().parent.parent
    set_names = _set_names([repo / d for d in ("src", "bench", "benchmarks", "examples")])
    unset = {
        f"{cls.__name__}.{f.name}"
        for cls in [*_config_classes(), QueryOptions]
        for f in dataclasses.fields(cls) if f.name not in set_names
    }
    assert unset == set(SET_ONLY_BY_TESTS)
