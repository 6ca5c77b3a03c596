"""Cluster topology: coordinator + storage nodes + compute nodes."""

from __future__ import annotations

from ..config import ClusterConfig
from ..errors import SchedulingError
from ..sim import SimKernel
from .node import NODE_CORES, Node


class Cluster:
    """The simulated cluster (paper Section 6.1: 1 coordinator, 10 storage
    nodes, 10 compute nodes of c5.2xlarge shape by default)."""

    def __init__(self, kernel: SimKernel, config: ClusterConfig):
        """``config.combined`` makes storage and compute the same machines
        — used for the single-node standalone benchmark (Figure 20)."""
        self.kernel = kernel
        self.coordinator_node = Node(kernel, 0, "coordinator")
        self.compute: list[Node] = [
            Node(kernel, i, "compute") for i in range(config.compute_nodes)
        ]
        if config.combined:
            if config.storage_nodes > config.compute_nodes:
                raise ValueError("combined cluster needs storage_nodes <= compute_nodes")
            self.storage = self.compute[: config.storage_nodes]
        else:
            self.storage = [
                Node(kernel, i, "storage") for i in range(config.storage_nodes)
            ]
        self.storage_map: dict[int, Node] = {n.id: n for n in self.storage}

    def least_loaded_compute(self) -> Node:
        """Placement target: least-loaded *schedulable* node.  Draining
        nodes still run their tasks but receive nothing new."""
        candidates = self.schedulable_compute
        if not candidates:
            raise SchedulingError("no schedulable compute nodes left in the cluster")
        return min(candidates, key=lambda n: (n.task_count, n.id))

    # -- membership ----------------------------------------------------------
    def add_compute(self, spot: bool = False) -> Node:
        """Register a new compute node at runtime (cluster membership).

        Node ids keep growing monotonically — a departed node's id is
        never reused, so lineage and trace records stay unambiguous.
        """
        node_id = max((n.id for n in self.compute), default=-1) + 1
        node = Node(self.kernel, node_id, "compute", spot=spot)
        self.compute.append(node)
        return node

    @property
    def schedulable_compute(self) -> list[Node]:
        return [n for n in self.compute if n.schedulable]

    def schedulable_cores(self) -> int:
        return NODE_CORES * len(self.schedulable_compute)

    # -- fault injection -----------------------------------------------------
    @property
    def alive_compute(self) -> list[Node]:
        return [n for n in self.compute if n.alive]

    @property
    def alive_storage(self) -> list[Node]:
        return [n for n in self.storage if n.alive]

    def all_nodes(self) -> list[Node]:
        seen: dict[int, Node] = {}
        for node in [self.coordinator_node, *self.compute, *self.storage]:
            seen.setdefault(id(node), node)
        return list(seen.values())

    def node_by_name(self, name: str) -> Node:
        """Resolve 'compute3' / 'storage0' / 'coordinator' to a node."""
        for node in self.all_nodes():
            if node.name == name or (name == "coordinator" and node.role == "coordinator"):
                return node
        raise SchedulingError(f"unknown node {name!r}")
