"""Accordion: Intra-Query Runtime Elasticity for cloud-native data analysis.

A full reproduction of the SIGMOD'25 Accordion engine on a discrete-event
simulated cluster.  Entry point: :class:`repro.AccordionEngine`; a
submitted query is driven through its :class:`repro.QueryHandle`, and
multi-tenant workloads go through :meth:`repro.AccordionEngine.session`
and :class:`repro.Workload`.

This module is the library's stable import surface — examples, benchmarks,
and downstream code should import from ``repro`` directly instead of deep
module paths (``tools/api_lint.py`` enforces this in CI).
"""

from .config import (
    BufferConfig,
    ClusterConfig,
    CostModel,
    EngineConfig,
    MemoryConfig,
    ParallelConfig,
    PredictionConfig,
    SharingConfig,
    TraceConfig,
    WorkloadConfig,
    config_fingerprint,
    presto_config,
    prestissimo_config,
)
from .autotune import DopPlanner
from .buffers import OutputMode
from .cluster import ClusterMembership, QueryOptions
from .data import Catalog, SplitLayout, read_csv, write_csv
from .data.tpch import TPCH_SCHEMAS, TpchGenerator
from .data.tpch.queries import QUERIES as TPCH_QUERIES, STANDALONE_BENCHMARK
from .engine import AccordionEngine
from .errors import (
    AccordionError,
    ExecutionError,
    MemoryBudgetExceededError,
    QueryCancelledError,
    QueryFailedError,
    QueryRejectedError,
    SqlError,
    TuningRejected,
    WorkerCrashedError,
)
from .experiments import (
    EVAL_SCALE,
    EVAL_SEED,
    eval_config,
    eval_engine,
    shuffle_experiment_engine,
    standalone_engine,
)
from .handle import QueryHandle, QueryResult
from .obs import (
    Decision,
    MetricsRegistry,
    ProfileReport,
    QueryTrace,
    Tracer,
    render_curve_points,
    render_series,
    render_table,
)
from .predict import Prediction, StageDemand
from .script import ScriptResult, run_script
from .script.plan import (
    NodeCrash,
    NodeDrain,
    NodeJoin,
    Plan,
    RpcOutage,
    RpcStorm,
    SpotPreemption,
    TaskCrash,
)
from .sharing import SharingInfo
from .workload import (
    Autoscaler,
    ClosedLoop,
    PoissonArrivals,
    Session,
    TraceArrivals,
    Workload,
    WorkloadReport,
)

__version__ = "1.5.0"

__all__ = [
    "AccordionEngine",
    "AccordionError",
    "Autoscaler",
    "BufferConfig",
    "Catalog",
    "ClosedLoop",
    "ClusterConfig",
    "ClusterMembership",
    "CostModel",
    "Decision",
    "DopPlanner",
    "EVAL_SCALE",
    "EVAL_SEED",
    "EngineConfig",
    "ExecutionError",
    "MemoryBudgetExceededError",
    "MemoryConfig",
    "MetricsRegistry",
    "NodeCrash",
    "NodeDrain",
    "NodeJoin",
    "OutputMode",
    "ParallelConfig",
    "Plan",
    "PoissonArrivals",
    "Prediction",
    "PredictionConfig",
    "ProfileReport",
    "QueryCancelledError",
    "QueryFailedError",
    "QueryHandle",
    "QueryOptions",
    "QueryRejectedError",
    "QueryResult",
    "QueryTrace",
    "RpcOutage",
    "RpcStorm",
    "STANDALONE_BENCHMARK",
    "ScriptResult",
    "Session",
    "SharingConfig",
    "SharingInfo",
    "SplitLayout",
    "SpotPreemption",
    "SqlError",
    "StageDemand",
    "TPCH_QUERIES",
    "TPCH_SCHEMAS",
    "TaskCrash",
    "TpchGenerator",
    "TraceArrivals",
    "TraceConfig",
    "Tracer",
    "TuningRejected",
    "WorkerCrashedError",
    "Workload",
    "WorkloadConfig",
    "WorkloadReport",
    "config_fingerprint",
    "eval_config",
    "eval_engine",
    "presto_config",
    "prestissimo_config",
    "read_csv",
    "render_curve_points",
    "render_series",
    "render_table",
    "run_script",
    "shuffle_experiment_engine",
    "standalone_engine",
    "write_csv",
]
