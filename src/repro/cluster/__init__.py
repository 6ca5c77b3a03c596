"""Simulated cluster: nodes, RPC, scheduler, coordinator, stages, and
runtime membership (join / drain / spot preemption: :mod:`.membership`,
imported by name)."""

from .cluster import Cluster
from .coordinator import Coordinator, QueryExecution, QueryOptions, QueryRecord
from .node import Node
from .rpc import RpcTracker
from .scheduler import Scheduler
from .stage import StageExecution

__all__ = [
    "Cluster",
    "Coordinator",
    "Node",
    "QueryExecution",
    "QueryOptions",
    "QueryRecord",
    "RpcTracker",
    "Scheduler",
    "StageExecution",
]
