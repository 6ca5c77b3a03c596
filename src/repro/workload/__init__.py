"""repro.workload: multi-tenant concurrent-query layer.

Sessions + admission control (``engine.session(...).submit(...)``),
cluster-wide resource arbitration of tuning bids (grant / trim / defer /
revoke), and workload drivers with per-tenant metrics.  See DESIGN.md
§11 for the policies and the determinism contract.
"""

from .admission import AdmissionController, planned_cores
from .arbiter import ANONYMOUS, ArbiterEntry, ResourceArbiter
from .autoscaler import Autoscaler
from .policies import (
    ARBITRATION_POLICIES,
    QUEUE_POLICIES,
    effective_priority,
    fair_share_budget,
    grantable_units,
    jain_fairness,
    pick_next,
    queue_key,
)
from .runner import (
    ClosedLoop,
    PoissonArrivals,
    TenantSpec,
    TenantStats,
    TraceArrivals,
    Workload,
    WorkloadReport,
)
from .session import Session, SubmissionRecord, WorkloadManager

__all__ = [
    "ANONYMOUS",
    "ARBITRATION_POLICIES",
    "AdmissionController",
    "ArbiterEntry",
    "Autoscaler",
    "ClosedLoop",
    "PoissonArrivals",
    "QUEUE_POLICIES",
    "ResourceArbiter",
    "Session",
    "SubmissionRecord",
    "TenantSpec",
    "TenantStats",
    "TraceArrivals",
    "Workload",
    "WorkloadManager",
    "WorkloadReport",
    "effective_priority",
    "fair_share_budget",
    "grantable_units",
    "jain_fairness",
    "pick_next",
    "planned_cores",
    "queue_key",
]
