"""``repro.obs`` — structured tracing, profiling, and metrics.

The observability layer of the engine: a span-tree :class:`Tracer` on
the virtual clock (:mod:`~repro.obs.trace`), Chrome trace-event export
(:mod:`~repro.obs.export`), wall-clock operator profiling
(:mod:`~repro.obs.profile`), a counters/gauges registry
(:mod:`~repro.obs.metrics`), the decision log every control decision is
recorded in (:mod:`~repro.obs.decisions`), time series and the report
and table printers (:mod:`~repro.obs.timeseries`,
:mod:`~repro.obs.report`).  The per-query sampler behind the throughput
curves and the Section 5 estimates is :mod:`repro.obs.throughput`,
imported by name.  So are the export, profiling, time-series and report
modules, which only a traced or profiled run, a report or a printed
table loads.  See DESIGN.md §9.
"""

from .decisions import Decision, DecisionLog
from .metrics import Counter, MetricsRegistry
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Decision",
    "DecisionLog",
    "MetricsRegistry",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Tracer",
]
