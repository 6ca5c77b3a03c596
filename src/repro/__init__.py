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

import importlib

#: Module -> the public names it defines.  A name resolves on first
#: access (PEP 562), so ``import repro`` loads no subsystem and a program
#: loads only what it uses (DESIGN.md §4 "Imports follow use").
_EXPORTS = {
    "autotune.planner": "DopPlanner",
    "buffers.output": "OutputMode",
    "cluster.coordinator": "QueryOptions",
    "cluster.membership": "ClusterMembership",
    "config": "BufferConfig ClusterConfig CostModel EngineConfig MemoryConfig "
    "ParallelConfig PredictionConfig SharingConfig TraceConfig WorkloadConfig "
    "presto_config prestissimo_config",
    "data.catalog": "Catalog",
    "data.csvio": "read_csv write_csv",
    "data.splits": "SplitLayout",
    "data.tpch.generator": "TpchGenerator",
    "data.tpch.queries": "STANDALONE_BENCHMARK TPCH_QUERIES",
    "data.tpch.schema": "TPCH_SCHEMAS",
    "engine": "AccordionEngine",
    "errors": "AccordionError ExecutionError QueryCancelledError "
    "QueryFailedError QueryRejectedError SqlError TuningRejected "
    "WorkerCrashedError",
    "experiments": "EVAL_SCALE EVAL_SEED eval_config eval_engine "
    "shuffle_experiment_engine standalone_engine",
    "handle": "QueryHandle QueryResult",
    "obs.decisions": "Decision",
    "obs.export": "QueryTrace",
    "obs.metrics": "MetricsRegistry",
    "obs.profile": "ProfileReport",
    "obs.report": "render_series render_table",
    "obs.trace": "Tracer",
    "predict.profile": "Prediction StageDemand",
    "script.executor": "ScriptResult run_script",
    "script.plan": "NodeCrash NodeDrain NodeJoin Plan RpcOutage RpcStorm "
    "SpotPreemption TaskCrash",
    "sharing": "SharingInfo",
    "workload.autoscaler": "Autoscaler",
    "workload.runner": "ClosedLoop PoissonArrivals TraceArrivals Workload "
    "WorkloadReport",
    "workload.session": "Session",
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names.split()}
#: Public names defined under another name in their module.
_RENAMED = {"TPCH_QUERIES": "QUERIES"}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = getattr(module, _RENAMED.get(name, name))
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})


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
    "eval_config",
    "eval_engine",
    "presto_config",
    "prestissimo_config",
    "read_csv",
    "render_series",
    "render_table",
    "run_script",
    "shuffle_experiment_engine",
    "standalone_engine",
    "write_csv",
]
