"""Pure policy functions for the workload layer.

The admission controller and resource arbiter delegate their *decisions*
to the stateless helpers here, so the policies can be property-tested
without spinning up a simulated cluster: no-starvation under priority +
aging, FIFO order preservation, and fair-share convergence are all
provable against these functions alone.
"""

from __future__ import annotations

QUEUE_POLICIES = ("fifo", "priority")
ARBITRATION_POLICIES = ("none", "fair_share", "deadline")


def effective_priority(
    priority: float, submitted_at: float, now: float, aging_rate: float
) -> float:
    """Priority after aging: waiting entries gain ``aging_rate`` points
    per queued virtual second, so any positive rate eventually lifts an
    old low-priority submission above fresh high-priority ones
    (no starvation)."""
    return priority + aging_rate * max(0.0, now - submitted_at)


def queue_key(entry, policy: str, aging_rate: float, now: float) -> tuple:
    """Sort key for one pending entry; the queue head is the minimum.

    ``entry`` needs ``priority``, ``submitted_at``, and ``seq`` (a unique
    monotonically increasing submission counter breaking all ties, which
    keeps the order total and the system deterministic).
    """
    if policy == "priority":
        return (
            -effective_priority(entry.priority, entry.submitted_at, now, aging_rate),
            entry.seq,
        )
    return (entry.seq,)


def pick_next(pending: list, policy: str, aging_rate: float, now: float):
    """Head of the admission queue under ``policy`` (``None`` if empty).

    Admission is head-of-line: only the head may be admitted, and if it
    does not fit the limits nothing behind it may jump the queue.  This
    costs some utilization but makes the no-starvation property hold for
    *resources* too — a wide query cannot be overtaken forever by narrow
    ones."""
    if not pending:
        return None
    return min(pending, key=lambda e: queue_key(e, policy, aging_rate, now))


def fair_share_budget(capacity: int, tenant_count: int) -> int:
    """Per-tenant core budget under fair-share arbitration."""
    return max(1, capacity // max(1, tenant_count))


def grantable_units(
    requested_units: int,
    per_unit_cores: int,
    free_cores: int,
    tenant_headroom_cores: int | None,
) -> int:
    """How many of ``requested_units`` (tasks/drivers) a bid may receive.

    Bounded by free cluster cores and, under fair share, by the bidding
    tenant's remaining budget (``None`` = unlimited headroom)."""
    per_unit = max(1, per_unit_cores)
    allowed = max(0, free_cores) // per_unit
    if tenant_headroom_cores is not None:
        allowed = min(allowed, max(0, tenant_headroom_cores) // per_unit)
    return max(0, min(requested_units, allowed))


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index over per-tenant allocations, in (0, 1].

    1.0 means perfectly equal shares; 1/n means one tenant got
    everything.  Empty/zero inputs return 1.0 (vacuously fair)."""
    xs = [v for v in values if v > 0]
    if not xs:
        return 1.0
    total = sum(xs)
    squares = sum(v * v for v in xs)
    return (total * total) / (len(xs) * squares)
