"""Tuning request/action types and results.

Requests use the paper's notation: ``AC Sn,a,b`` (add task DOP of stage n
from a to b), ``AP Sn,a,b`` (add stage DOP), ``RP Sn,a,b`` (reduce stage
DOP).  :func:`~repro.elastic.apply_tuning` classifies each request into
one of the mechanism types of Figure 9 and Section 4.5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class TuningKind(enum.Enum):
    TASK_DOP = "task_dop"        # intra-task: change drivers per pipeline
    STAGE_DOP = "stage_dop"      # intra-stage (a group switch on a partitioned join)


@dataclass(frozen=True)
class TuningRequest:
    """A user's/auto-tuner's request to change a stage's parallelism."""

    stage: int
    kind: TuningKind
    target: int

    def describe(self) -> str:
        return f"{self.kind.value} S{self.stage} -> {self.target}"


@dataclass
class TuningResult:
    request: TuningRequest
    accepted: bool
    reason: str = ""
    #: Virtual time the request was issued.
    issued_at: float = 0.0
    #: Virtual time the adjustment fully took effect (e.g. hash tables
    #: rebuilt); None while in flight.
    completed_at: float | None = None
    #: State-transfer breakdown for DOP switching (paper Table 2).
    shuffle_seconds: float = 0.0
    build_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at
