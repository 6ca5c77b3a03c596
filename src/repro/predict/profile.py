"""Demand-profile dataclasses: what a prediction *is* (DESIGN.md §16).

A :class:`StageDemand` is the time-varying resource demand of one stage
— CPU seconds and quanta burnt, peak tracked operator memory, exchange
bytes produced, and the stage's [start, end) window relative to query
submission.  A :class:`Prediction` bundles the per-stage demand series
with a runtime point estimate and variance over the template's recorded
runs; :meth:`Prediction.miss_probability` turns estimate + variance into
P(deadline miss) for SLO admission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Prediction", "StageDemand"]


@dataclass(frozen=True)
class StageDemand:
    """Mean observed demand of one stage across a template's runs."""

    stage: int
    #: Virtual CPU seconds burnt by the stage (all tasks, all drivers).
    cpu_seconds: float
    #: Driver quanta executed.
    quanta: int
    #: Peak tracked operator-state bytes, summed over the stage's tasks.
    peak_memory_bytes: int
    #: Bytes the stage pushed into its output exchange.
    exchange_bytes: int
    rows_out: int
    #: Tasks the stage ran with when the demand was recorded.
    tasks: int
    #: Stage activity window, virtual seconds relative to submission.
    start: float
    end: float

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def cpu_rate(self) -> float:
        """Mean cores the stage keeps busy while active (CPU-quanta/s)."""
        duration = self.duration
        return self.cpu_seconds / duration if duration > 0 else 0.0


@dataclass(frozen=True)
class Prediction:
    """Predicted demand + runtime for one query template.

    Frozen and self-contained: handles, rejection errors, and reports
    can carry it around without exposing predictor internals.
    """

    #: Template fingerprint the history was keyed under.
    template: str
    #: Recorded runs backing this prediction (the confidence signal).
    samples: int
    #: Runtime point estimate (mean over runs), virtual seconds.
    runtime: float
    #: Population variance of the recorded runtimes.
    variance: float
    #: Mean peak tracked bytes of the whole query.
    peak_memory_bytes: int
    #: Per-stage mean demand series, ordered by stage id.
    stages: tuple[StageDemand, ...] = field(default_factory=tuple)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def demand(self, stage: int) -> StageDemand | None:
        for d in self.stages:
            if d.stage == stage:
                return d
        return None

    def miss_probability(self, deadline: float) -> float:
        """P(runtime > deadline) under Normal(runtime, variance).

        With zero variance (a single sample, or perfectly repeatable
        runs) this degenerates to a step function at the point estimate.
        """
        if deadline <= 0:
            return 1.0
        if self.variance <= 0.0:
            return 1.0 if self.runtime > deadline else 0.0
        z = (deadline - self.runtime) / (self.std * math.sqrt(2.0))
        return 0.5 * (1.0 - math.erf(z))

    def describe(self) -> str:
        lines = [
            f"template {self.template}: runtime {self.runtime:.3f}s "
            f"(std {self.std:.3f}s, {self.samples} samples), "
            f"peak memory {self.peak_memory_bytes} bytes"
        ]
        for d in self.stages:
            lines.append(
                f"  S{d.stage}: cpu {d.cpu_seconds:.3f}s over "
                f"[{d.start:.3f}, {d.end:.3f}]s ({d.cpu_rate:.2f} cores), "
                f"peak {d.peak_memory_bytes} B, "
                f"exchange {d.exchange_bytes} B, {d.tasks} tasks"
            )
        return "\n".join(lines)
