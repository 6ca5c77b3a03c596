"""Experiment presets shared by the figure suite (``benchmarks/``) and tests.

The paper's evaluation runs TPC-H SF100 on a 21-node cluster; the
simulator reproduces the *shapes* at reduced scale.  Two calibration
levers make the shapes visible at laptop scale:

* ``cpu_multiplier`` stretches virtual time so queries run for tens of
  virtual seconds — long enough for elastic buffers, the collector, and
  the auto-tuner to act (their periods are fractions of a second);
* small pages + tight buffer caps keep the number of in-flight pages tiny
  relative to the table, so streaming backpressure behaves like it does
  when tables are far larger than buffer memory.
"""

from __future__ import annotations

from dataclasses import replace

from .config import BufferConfig, ClusterConfig, CostModel, EngineConfig
from .data.splits import PAPER_SPLIT_SCHEME
from .engine import AccordionEngine

#: Scale factor used by the evaluation benchmarks (SF100 in the paper).
EVAL_SCALE = 0.01
#: Virtual-time stretch so evaluation queries run for >= tens of seconds.
EVAL_MULTIPLIER = 1000.0
#: Deterministic dataset seed shared by every experiment.
EVAL_SEED = 20250622


def eval_config(
    multiplier: float = EVAL_MULTIPLIER,
    page_rows: int = 1024,
    max_buffer_pages: int = 64,
    compute_nodes: int = 10,
    storage_nodes: int = 10,
    **cost_overrides,
) -> EngineConfig:
    """The standard evaluation engine configuration."""
    cost = CostModel(**cost_overrides).scaled(multiplier)
    return EngineConfig(
        cluster=ClusterConfig(compute_nodes=compute_nodes, storage_nodes=storage_nodes),
        cost=cost,
        buffers=BufferConfig(max_capacity_pages=max_buffer_pages),
        page_row_limit=page_rows,
    )


def eval_engine(
    scale: float = EVAL_SCALE,
    config: EngineConfig | None = None,
    **engine_kwargs,
) -> AccordionEngine:
    """An engine over the shared evaluation dataset."""
    return AccordionEngine.tpch(
        scale=scale, config=config or eval_config(), seed=EVAL_SEED, **engine_kwargs
    )


def shuffle_experiment_engine(
    scale: float = 0.02,
    multiplier: float = EVAL_MULTIPLIER,
) -> AccordionEngine:
    """The Section 6.4.2 setup: orders stored on only two nodes, split
    fine-grained, with shuffle work expensive enough to bottleneck them."""
    scheme = dict(PAPER_SPLIT_SCHEME)
    scheme["orders"] = (None, 8)
    config = eval_config(
        multiplier=multiplier,
        page_rows=32,
        max_buffer_pages=8,
        shuffle_row_cost=4.0e-6,
    )
    config = replace(
        config,
        cluster=config.cluster.with_placement(
            split_scheme=scheme, node_overrides={"orders": [0, 1]}
        ),
    )
    return AccordionEngine.tpch(scale=scale, config=config, seed=EVAL_SEED)


def standalone_engine(mode: str, scale: float = 0.01) -> AccordionEngine:
    """Single-node engines for the Figure 20 standalone comparison.

    A moderate multiplier keeps CPU work dominant over fixed control-plane
    costs, as it is at the paper's SF1 scale.
    """
    base = eval_config(multiplier=100.0, compute_nodes=1, storage_nodes=1)
    if mode == "accordion":
        config = base
    elif mode == "presto":
        from .config import presto_config

        config = presto_config(base)
    elif mode == "prestissimo":
        from .config import prestissimo_config

        config = prestissimo_config(base)
    else:
        raise ValueError(f"unknown engine mode {mode!r}")
    config = replace(config, cluster=config.cluster.with_placement(combined=True))
    return AccordionEngine.tpch(scale=scale, config=config, seed=EVAL_SEED)
