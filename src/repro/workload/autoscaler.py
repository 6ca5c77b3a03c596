"""Autoscaler: queue-depth and deadline-pressure driven fleet sizing.

Sits between the admission controller and :mod:`repro.cluster.membership`.
Policy, evaluated every ``PERIOD`` virtual seconds:

* **Scale out** when the admission queue is at least ``QUEUE_HIGH``
  deep, or any queued query's deadline is closer than
  ``DEADLINE_SLACK`` — joining up to
  ``MAX_JOIN_PER_TICK`` nodes (spot when ``autoscale_spot``),
  bounded by ``autoscale_max_nodes`` counting pending joins.

* **Scale in** after ``IDLE_TICKS`` consecutive ticks with an
  empty queue and cluster usage below ``USAGE_LOW`` of
  capacity — gracefully draining the most recently *joined* node (base
  capacity is never drained), down to the configured ``compute_nodes``.

A cooldown separates consecutive actions so the policy cannot flap.  The
tick self-terminates when there is nothing to do (idle at minimum size)
and is re-armed by submissions and membership changes, so a drained
workload never keeps the event loop alive.  Decisions depend only on
virtual time and engine state — runs are bit-identical per seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .session import WorkloadManager

#: Virtual seconds between policy evaluations.
PERIOD = 0.5
#: Scale in when cluster usage / capacity stays below this fraction ...
USAGE_LOW = 0.5
#: ... for this many consecutive ticks.
IDLE_TICKS = 2
#: Max nodes joined per policy tick.
MAX_JOIN_PER_TICK = 2
#: Scale out when the admission queue depth reaches this ...
QUEUE_HIGH = 1
#: ... or when a queued query's deadline is closer than this (virtual s).
DEADLINE_SLACK = 5.0


class Autoscaler:
    def __init__(self, manager: "WorkloadManager"):
        self.manager = manager
        self.engine = manager.engine
        self.kernel = manager.engine.kernel
        self.config = manager.engine.config.cluster
        self.membership = manager.engine.membership
        self.cluster = manager.engine.cluster
        #: Node ids this autoscaler joined; only these are drain victims.
        self.owned: set[int] = set()
        self._idle_ticks = 0
        self._last_action = -1e18
        self._tick_running = False
        self.membership.on_change.append(self._on_membership_change)

    # ------------------------------------------------------------------
    @property
    def min_nodes(self) -> int:
        return self.config.compute_nodes

    @property
    def max_nodes(self) -> int | None:
        return self.config.autoscale_max_nodes

    def ensure_tick(self) -> None:
        if not self._tick_running:
            self._tick_running = True
            self.kernel.schedule(PERIOD, self._tick)

    def _on_membership_change(self) -> None:
        # New capacity (or a finished drain) may unblock queued work.
        self.manager.admission._schedule_pump()
        self.ensure_tick()

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        admission = self.manager.admission
        arbiter = self.manager.arbiter
        queue_depth = len(admission.queue)
        running = len(admission.running)
        live = (
            len([n for n in self.cluster.compute if n.state == "active"])
            + self.membership.pending_joins
        )
        draining = any(
            n.state == "draining" for n in self.cluster.compute
        )
        # Owned surplus: nodes this autoscaler joined that it could still
        # drain away.  Externally joined nodes are not ours to reclaim, so
        # they must not keep the tick alive forever.
        owned_active = [
            n
            for n in self.cluster.compute
            if n.state == "active" and n.id in self.owned
        ]
        surplus = bool(owned_active) and (
            len(self.cluster.schedulable_compute) > self.min_nodes
        )
        if (
            queue_depth == 0
            and running == 0
            and not draining
            and self.membership.pending_joins == 0
            and not surplus
        ):
            # Idle with nothing left to reclaim: stop ticking (re-armed
            # on submission and membership changes).
            self._tick_running = False
            return

        cooled = (
            self.kernel.now - self._last_action
            >= self.config.autoscale_cooldown
        )
        if cooled and self._wants_out(admission, live):
            join = MAX_JOIN_PER_TICK
            if self.max_nodes is not None:
                join = min(join, self.max_nodes - live)
            if join > 0:
                self._scale_out(join)
        elif cooled and self._wants_in(queue_depth, arbiter):
            self._idle_ticks += 1
            if self._idle_ticks >= IDLE_TICKS:
                self._scale_in()
        else:
            self._idle_ticks = 0
        self.kernel.schedule(PERIOD, self._tick)

    # -- policy --------------------------------------------------------
    def _wants_out(self, admission, live: int) -> bool:
        if self.max_nodes is not None and live >= self.max_nodes:
            return False
        if len(admission.queue) >= QUEUE_HIGH:
            return True
        now = self.kernel.now
        for pending in admission.queue:
            deadline_at = pending.deadline_at
            if deadline_at is not None and deadline_at - now < DEADLINE_SLACK:
                return True
        return False

    def _wants_in(self, queue_depth: int, arbiter) -> bool:
        if queue_depth > 0:
            return False
        candidates = [
            n
            for n in self.cluster.schedulable_compute
            # Only idle owned nodes are drain candidates: a busy node's
            # drain could escalate into a crash of a root-stage task,
            # which is not a price a *policy* decision may pay.
            if n.id in self.owned and n.task_count == 0
        ]
        if len(self.cluster.schedulable_compute) - len(candidates) < self.min_nodes:
            candidates = candidates[: max(
                0, len(self.cluster.schedulable_compute) - self.min_nodes
            )]
        if not candidates:
            return False
        capacity = arbiter.capacity
        if capacity <= 0:
            return False
        return arbiter.cluster_usage() / capacity < USAGE_LOW

    # -- actions -------------------------------------------------------
    def _scale_out(self, count: int) -> None:
        self.membership.join(
            count,
            spot=self.config.autoscale_spot,
            on_active=lambda node: self.owned.add(node.id),
        )
        self._last_action = self.kernel.now
        self._idle_ticks = 0
        self.kernel.decisions.record(
            "membership", "autoscale_out", count=count,
            queue_depth=len(self.manager.admission.queue),
        )

    def _scale_in(self) -> None:
        victims = [
            n
            for n in self.cluster.schedulable_compute
            if n.id in self.owned and n.task_count == 0
        ]
        if not victims or len(self.cluster.schedulable_compute) <= max(
            1, self.min_nodes
        ):
            self._idle_ticks = 0
            return
        victim = max(victims, key=lambda n: (n.provisioned_at, n.id))
        self.membership.drain(victim)
        self._last_action = self.kernel.now
        self._idle_ticks = 0
        self.kernel.decisions.record("membership", "autoscale_in", node=victim.name)

    # ------------------------------------------------------------------
    @property
    def settled(self) -> bool:
        """True once the policy tick has self-terminated: queue empty,
        nothing running or draining, fleet back at the minimum size."""
        return not self._tick_running

    def gauges(self) -> dict:
        count = self.kernel.decisions.count
        return {
            "scale_outs": count("membership", "autoscale_out"),
            "scale_ins": count("membership", "autoscale_in"),
            "owned_nodes": len(self.owned),
        }
