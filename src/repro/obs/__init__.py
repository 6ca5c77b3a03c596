"""``repro.obs`` — structured tracing, profiling, and metrics.

The observability layer of the engine: a span-tree :class:`Tracer` on
the virtual clock (:mod:`~repro.obs.trace`), Chrome trace-event export
(:mod:`~repro.obs.export`), wall-clock operator profiling
(:mod:`~repro.obs.profile`), a counters/gauges registry
(:mod:`~repro.obs.metrics`), and the decision log every control
decision is recorded in (:mod:`~repro.obs.decisions`).  See DESIGN.md §9.
"""

from .decisions import Decision, DecisionLog
from .export import QueryTrace, throughput_counters
from .metrics import Counter, MetricsRegistry
from .profile import OpProfile, Profiler, ProfileReport
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Decision",
    "DecisionLog",
    "MetricsRegistry",
    "NullTracer",
    "NULL_TRACER",
    "OpProfile",
    "Profiler",
    "ProfileReport",
    "QueryTrace",
    "Span",
    "Tracer",
    "throughput_counters",
]
