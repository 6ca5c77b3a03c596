"""Cluster membership: node join, graceful leave, and spot preemption.

The paper makes *intra-query* resources elastic over a fixed fleet; this
module makes the fleet itself elastic while keeping every run seeded and
reproducible.  Three operations, all in virtual time:

* **Join** — after a provisioning delay and a control-plane registration
  charged to the RPC tracker, a new compute node (CpuPool + NIC) appears
  in the cluster.  Placement (`Cluster.least_loaded_compute`) sees it
  immediately, so in-flight queries can expand onto it via the usual
  intra-stage task addition (Section 4.4).  A registration that
  exhausts its RPC retries adds no node and fails no query.

* **Graceful drain** — the drain state machine::

      active ──drain()──▶ draining ──(task_count == 0)──▶ left
                             │
                 (timeout / preemption notice)
                             ▼
                  dead (crash/recovery path)

  A draining node is removed from placement, then its removable tasks
  are shut down through the Section 4.4 end-signal path: scan drivers
  get end requests (unread splits return to the feed for survivors —
  spawned first if the drained node held the only scan tasks), and
  non-source tasks whose exchanges are not hash-partitioned relay end
  pages through the child output buffers.  Anything else (root tasks,
  hash-partitioned consumers) simply runs to completion on the draining
  node.  If the node is not idle by the deadline the drain *escalates*
  to :meth:`RecoveryManager.node_down` — exactly a crash, recovered by
  lineage replay.

* **Spot preemption** — a drain with a short deadline (the provider's
  preemption notice).  Whatever has not drained when the notice expires
  is killed via the ``NodeCrash`` path and recovered like any failure.

Determinism: membership actions are scheduled on the virtual clock, a
churn plan's only randomness is its seed (``NodeJoin`` / ``NodeDrain`` /
``SpotPreemption`` events of :class:`repro.Plan`), and the
``membership`` decisions recorded in ``engine.decisions`` are
bit-identical across same-seed runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..errors import SchedulingError, TuningRejected
from ..sim import SimKernel
from .topology import attach_tasks, detach_tasks

if TYPE_CHECKING:  # pragma: no cover
    from .coordinator import Coordinator
    from .node import Node

#: Control-plane requests to register a node (announce + install links).
RPC_NODE_JOIN = 2
#: Control-plane request announcing a drain (stop-placement broadcast).
RPC_NODE_DRAIN = 1
#: Virtual seconds a graceful drain may take, unless ``drain(timeout=)``
#: says otherwise, before it escalates to the crash/recovery path.
DRAIN_TIMEOUT = 10.0
#: Virtual seconds between drain-completion checks.
DRAIN_POLL = 0.05
#: Virtual seconds between a join request and the node being usable.
NODE_JOIN_DELAY = 0.5
#: Dollars charged per node per virtual second of provisioned time
#: (node-seconds = dollars).
COST_PER_NODE_SECOND = 1.0
#: Price factor for spot nodes.
SPOT_PRICE_MULTIPLIER = 0.3


class ClusterMembership:
    """Runtime node arrivals and departures for one engine's cluster."""

    def __init__(self, kernel: SimKernel, coordinator: "Coordinator"):
        self.kernel = kernel
        self.coordinator = coordinator
        self.cluster = coordinator.cluster
        #: Fired (no args) after every membership change; the workload
        #: layer subscribes to re-pump admission when capacity grows.
        self.on_change: list[Callable[[], None]] = []
        #: Nodes with a join scheduled but not yet active (so autoscaler
        #: policy can count capacity already on the way).
        self.pending_joins = 0
        #: Nodes added at runtime, in activation order.  A plan's
        #: ``"newest"`` resolves against this list, so the base fleet the
        #: engine started with is never a drain/preemption target.
        self.joined_nodes: list["Node"] = []
        #: Highest concurrent alive-compute count ever observed.
        self.nodes_peak = len(self.cluster.compute)

    # ------------------------------------------------------------------
    # join
    # ------------------------------------------------------------------
    def join(
        self,
        count: int = 1,
        spot: bool = False,
        on_active: "Callable[[Node], None] | None" = None,
    ) -> None:
        """Provision ``count`` compute nodes: after the provisioning delay
        plus the registration RPCs, each node is live and schedulable.
        ``on_active`` (if given) receives each node as it activates."""
        for _ in range(count):
            self.pending_joins += 1
            self.kernel.schedule(
                NODE_JOIN_DELAY,
                lambda: self.coordinator.rpc.after_requests(
                    RPC_NODE_JOIN,
                    lambda: self._activate(spot, on_active),
                    on_give_up=self._join_failed,
                ),
            )

    def _activate(
        self, spot: bool, on_active: "Callable[[Node], None] | None" = None
    ) -> None:
        node = self.cluster.add_compute(spot=spot)
        self.pending_joins -= 1
        self.joined_nodes.append(node)
        self.nodes_peak = max(self.nodes_peak, len(self.cluster.alive_compute))
        self.kernel.decisions.record(
            "membership", "node_join", node=node.name, spot=spot
        )
        if on_active is not None:
            on_active(node)
        self._changed()

    def _join_failed(self, message: str) -> None:
        """The registration RPCs gave up: the node never arrives."""
        self.pending_joins -= 1
        self.kernel.decisions.record("membership", "join_failed", reason=message)

    # ------------------------------------------------------------------
    # graceful leave
    # ------------------------------------------------------------------
    def drain(self, node: "Node", timeout: float | None = None) -> None:
        """Begin a graceful leave; escalates to the crash path on timeout."""
        deadline = self.kernel.now + (
            timeout if timeout is not None else DRAIN_TIMEOUT
        )
        self._begin_drain(node, deadline, escalation="drain_escalated")

    def preempt(self, node: "Node", notice: float | None = None) -> None:
        """Spot preemption: a drain whose deadline is the provider notice;
        at expiry the node dies and lineage replay recovers its work."""
        window = notice if notice is not None else 0.5
        self.kernel.decisions.record(
            "membership", "preemption_notice", node=node.name, notice=window
        )
        self._begin_drain(
            node, self.kernel.now + window, escalation="preempted"
        )

    def _begin_drain(
        self, node: "Node", deadline: float, escalation: str
    ) -> None:
        if node.role != "compute":
            raise SchedulingError(f"only compute nodes drain, not {node.name}")
        if node.state != "active":
            return  # already draining, dead, or gone — idempotent
        if len(self.cluster.schedulable_compute) <= 1:
            raise SchedulingError(
                f"cannot drain {node.name}: it is the last schedulable node"
            )
        node.start_drain()
        self.coordinator.rpc.charge(RPC_NODE_DRAIN)
        self.kernel.decisions.record(
            "membership", "drain_start", node=node.name, deadline=deadline
        )
        tracer = self.kernel.tracer
        span = tracer.begin(
            "membership", f"drain {node.name}", node=node.name
        )
        self._teardown_pass(node)
        self._changed()
        self.kernel.schedule(
            DRAIN_POLL,
            lambda: self._poll(node, deadline, escalation, span),
        )

    def _poll(
        self, node: "Node", deadline: float, escalation: str, span: int
    ) -> None:
        if node.state != "draining":
            # Crashed (or otherwise terminal) mid-drain; the recovery
            # manager owns it now.
            self.kernel.tracer.end(span, outcome=node.state)
            return
        if node.task_count == 0:
            node.leave()
            self.kernel.decisions.record("membership", "node_left", node=node.name)
            self.kernel.tracer.end(span, outcome="left")
            self._changed()
            return
        if self.kernel.now >= deadline:
            self.kernel.decisions.record(
                "membership", escalation, node=node.name,
                tasks_undrained=node.task_count,
            )
            self.kernel.tracer.end(span, outcome=escalation)
            self.coordinator.recovery.node_down(node)
            self._changed()
            return
        # Tasks may have landed between the drain announcement and the
        # placement cutoff; re-run the (idempotent) end-signal pass.
        self._teardown_pass(node)
        self.kernel.schedule(
            DRAIN_POLL,
            lambda: self._poll(node, deadline, escalation, span),
        )

    # ------------------------------------------------------------------
    # end-signal teardown (Section 4.4) of a draining node's tasks
    # ------------------------------------------------------------------
    def _teardown_pass(self, node: "Node") -> None:
        for query in list(self.coordinator.running.values()):
            touched = False
            for stage in query.stages.values():
                touched |= self._drain_stage(query, stage, node)
            if touched:
                self.kernel.decisions.record(
                    "fault", "drain", query_id=query.id, node=node.name,
                    reason=node.name,
                )

    def _drain_stage(self, query, stage, node: "Node") -> bool:
        active = stage.active_group
        victims = [
            t
            for t in active
            if t.node is node
            and not t.end_signalled
            and any(d for p in t.pipelines for d in p.drivers)
        ]
        if not victims:
            return False
        scheduler = self.coordinator.scheduler
        try:
            if all(t.node is node for t in active):
                if not stage.fragment.is_source:
                    return False  # nobody to absorb the work
                # The draining node holds the whole scan: attach
                # replacements on schedulable nodes first, so the
                # returned splits have consumers.
                attach_tasks(scheduler, query, stage, len(victims))
            detach_tasks(scheduler, query, stage, victims)
        except (TuningRejected, SchedulingError):
            # Root tasks and members of a hash buffer-ID group run to
            # completion here; the deadline escalates what is left.
            return False
        return True

    # ------------------------------------------------------------------
    # cost model: node-seconds = dollars
    # ------------------------------------------------------------------
    def node_seconds(self, until: float | None = None) -> float:
        return sum(
            n.provisioned_seconds(until) for n in self.cluster.compute
        )

    def cost_between(self, since: float, until: float | None = None) -> float:
        """Dollars billed for compute in ``[since, until]`` (default: now),
        at ``COST_PER_NODE_SECOND`` with the spot discount applied."""
        end_default = self.kernel.now if until is None else until
        total = 0.0
        for node in self.cluster.compute:
            start = max(node.provisioned_at, since)
            end = node.released_at if node.released_at is not None else end_default
            end = min(end, end_default)
            seconds = max(0.0, end - start)
            rate = COST_PER_NODE_SECOND
            if node.spot:
                rate *= SPOT_PRICE_MULTIPLIER
            total += seconds * rate
        return total

    # ------------------------------------------------------------------
    def _changed(self) -> None:
        for fn in list(self.on_change):
            fn()

    def gauges(self, since: int = 0) -> dict:
        """Fleet state, plus the membership decisions counted from log
        mark ``since`` (``cluster.*`` in ``engine.metrics``)."""
        counts = self.kernel.decisions.counts(since)
        cluster = self.cluster
        return {
            "joins": counts["membership", "node_join"],
            "drains_started": counts["membership", "drain_start"],
            "drains_clean": counts["membership", "node_left"],
            "drains_escalated": counts["membership", "drain_escalated"]
            + counts["membership", "preempted"],
            "preemption_notices": counts["membership", "preemption_notice"],
            "preemptions": counts["membership", "preempted"],
            "nodes_total": len(cluster.compute),
            "nodes_schedulable": len(cluster.schedulable_compute),
            "nodes_peak": self.nodes_peak,
            "node_seconds": self.node_seconds(),
        }
