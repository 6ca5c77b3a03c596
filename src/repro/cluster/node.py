"""Simulated cluster nodes: CPU cores + NIC per node."""

from __future__ import annotations

from ..sim import CpuPool, NicQueue, SimKernel

# Every node has the paper's c5.2xlarge shape (Section 6.1).
NODE_CORES = 8
NODE_MEMORY_BYTES = 16 * 1024**3
NODE_NIC_GBPS = 10.0


class Node:
    """One simulated machine (compute or storage).

    Lifecycle (``state``)::

        active ──start_drain()──▶ draining ──leave()──▶ left
           │                        │
           └────────fail()──────────┴──▶ dead

    ``alive`` (active or draining) gates fault-recovery bookkeeping and
    whether the node's CPU still runs quanta; ``schedulable`` (active
    only) gates *new* task placement — a draining node finishes what it
    has but receives nothing new.
    """

    def __init__(
        self,
        kernel: SimKernel,
        node_id: int,
        role: str,
        spot: bool = False,
    ):
        self.kernel = kernel
        self.id = node_id
        self.role = role  # "compute" | "storage" | "coordinator"
        self.cpu = CpuPool(kernel, NODE_CORES, name=f"{role}{node_id}.cpu")
        self.nic = NicQueue(
            kernel, NODE_NIC_GBPS * 1e9 / 8.0, name=f"{role}{node_id}.nic"
        )
        self.task_count = 0
        #: Predicted bytes reserved by tasks the scheduler placed here by
        #: demand (``Scheduler._place_predicted``).
        self.reserved_bytes = 0
        #: active | draining | dead | left
        self.state = "active"
        #: Spot (preemptible) capacity — cheaper in the cost model.
        self.spot = spot
        #: Billing window: [provisioned_at, released_at or now).
        self.provisioned_at = kernel.now
        self.released_at: float | None = None
        self.failed_at: float | None = None

    @property
    def name(self) -> str:
        return f"{self.role}{self.id}"

    @property
    def alive(self) -> bool:
        """Fault injection: a dead node grants no cores and is blacklisted
        from task placement.  Its spooled task output stays readable
        (durable disaggregated storage), bypassing its NIC."""
        return self.state in ("active", "draining")

    @property
    def schedulable(self) -> bool:
        """Whether new tasks may be placed here (active nodes only)."""
        return self.state == "active"

    def fail(self) -> None:
        """Kill this node: revoke its cores (quantum-atomic) and mark it
        down for placement.  Idempotent."""
        if not self.alive:
            return
        self.state = "dead"
        self.failed_at = self.kernel.now
        self.released_at = self.kernel.now
        self.cpu.halt()

    def start_drain(self) -> None:
        """Stop new placements; running tasks keep their cores."""
        if self.state == "active":
            self.state = "draining"

    def leave(self) -> None:
        """Graceful departure after a clean drain.  The node stops billing
        and its (now idle) cores are released; unlike ``fail()`` nothing
        running is lost — callers must drain first."""
        if not self.alive:
            return
        self.state = "left"
        self.released_at = self.kernel.now
        self.cpu.halt()

    def provisioned_seconds(self, since: float = 0.0) -> float:
        """Billable node-seconds accrued from ``since`` to now."""
        end = self.kernel.now if self.released_at is None else self.released_at
        return max(0.0, end - max(self.provisioned_at, since))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "" if self.state == "active" else f", {self.state.upper()}"
        return f"Node({self.role}{self.id}, cores={NODE_CORES}{state})"
