"""Intra-query runtime elasticity: the paper's core contribution.

* :mod:`.dynamic_optimizer` — the runtime DOP tuning module of Figure 8:
  :func:`apply_tuning` classifies a request, and applies driver-level
  (Section 4.3) and task-level (Section 4.4) tuning
* :mod:`.dop_switching` — partitioned-join task-group switching (4.5)
* :mod:`.tuning` — request/result types

The task-graph edits all three rest on are in :mod:`repro.cluster.topology`.
"""

from .dynamic_optimizer import apply_tuning
from .tuning import TuningKind, TuningRequest, TuningResult

__all__ = [
    "TuningKind",
    "TuningRequest",
    "TuningResult",
    "apply_tuning",
]
