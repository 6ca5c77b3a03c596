"""Fault injector: executes a :class:`FaultPlan` on the virtual clock.

Node and task crashes are scheduled as kernel events; RPC faults install a
per-request outcome hook on the coordinator's :class:`RpcTracker`.  The
only randomness is ``random.Random(plan.seed)``, consumed exclusively for
storm outcomes inside their windows, so the full fault timeline (the
``inject`` decisions in ``engine.decisions``) is bit-identical across
runs with the same seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..sim import SimKernel
from .plan import FaultPlan, NodeCrash, RpcOutage, RpcStorm, TaskCrash

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import Coordinator


class FaultInjector:
    def __init__(self, kernel: SimKernel, coordinator: "Coordinator", plan: FaultPlan):
        self.kernel = kernel
        self.coordinator = coordinator
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self._rpc_events = plan.rpc_events
        if self._rpc_events:
            coordinator.rpc.set_fault_hook(self._rpc_outcome)
        for event in plan.events:
            if isinstance(event, NodeCrash):
                kernel.schedule_at(
                    max(kernel.now, event.at), lambda e=event: self._crash_node(e)
                )
            elif isinstance(event, TaskCrash):
                kernel.schedule_at(
                    max(kernel.now, event.at), lambda e=event: self._crash_task(e)
                )

    # ------------------------------------------------------------------
    def _crash_node(self, event: NodeCrash) -> None:
        node = self.coordinator.cluster.node_by_name(event.node)
        if not node.alive:
            return
        self.kernel.decisions.record(
            "inject", "node_crash", node=node.name, reason=node.name
        )
        self.coordinator.recovery.node_down(node)

    def _crash_task(self, event: TaskCrash) -> None:
        for query in list(self.coordinator.running.values()):
            stage = query.stages.get(event.stage)
            if stage is None:
                continue
            candidates = [
                t for t in stage.tasks if not t.finished and not t.crashed
            ]
            if not candidates:
                continue
            task = candidates[event.index % len(candidates)]
            self.kernel.decisions.record(
                "inject", "task_crash", query_id=query.id, stage=stage.id,
                node=task.node.name, reason=f"{task.task_id} on {task.node.name}",
            )
            self.coordinator.recovery.task_down(query, stage, task)

    # ------------------------------------------------------------------
    def _rpc_outcome(self, t: float):
        """Outcome of one request attempt at virtual time ``t``."""
        for event in self._rpc_events:
            if event.start <= t < event.stop:
                if isinstance(event, RpcOutage):
                    return "fail"
                if isinstance(event, RpcStorm):
                    if self.rng.random() < event.failure_rate:
                        return "fail"
                    if event.delay:
                        return ("delay", event.delay)
        return "ok"
