"""Simulated cluster: nodes, RPC, scheduler, coordinator, stages,
and runtime membership (join / drain / spot preemption)."""

from .cluster import Cluster
from .coordinator import Coordinator, QueryExecution, QueryOptions, QueryRecord
from .membership import ClusterMembership
from .node import Node
from .rpc import RpcTracker
from .scheduler import Scheduler
from .stage import StageExecution

__all__ = [
    "Cluster",
    "ClusterMembership",
    "Coordinator",
    "Node",
    "QueryExecution",
    "QueryOptions",
    "QueryRecord",
    "RpcTracker",
    "Scheduler",
    "StageExecution",
]
