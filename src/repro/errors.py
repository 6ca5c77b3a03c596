"""Exception hierarchy for the Accordion engine.

Every error raised by the library derives from :class:`AccordionError` so
applications can catch engine failures with a single ``except`` clause while
still being able to distinguish user errors (bad SQL, bad tuning request)
from internal invariant violations.
"""

from __future__ import annotations


class AccordionError(Exception):
    """Base class for all errors raised by the repro/Accordion library."""


class SqlError(AccordionError):
    """Base class for errors in the SQL front end."""


class LexError(SqlError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when the parser cannot derive a statement from the token stream."""


class AnalysisError(SqlError):
    """Raised during semantic analysis (unknown table/column, type mismatch...)."""


class PlanningError(AccordionError):
    """Raised when the optimizer or physical planner hits an unsupported shape."""


class SchedulingError(AccordionError):
    """Raised when the (dynamic) scheduler cannot honour a placement request."""


class TuningRejected(AccordionError):
    """Raised when the DOP tuning request filter rejects a request.

    Mirrors the paper's request filter (Section 5.2): requests against
    finished queries/stages and requests whose estimated remaining time is
    smaller than the hash-table rebuild time are rejected rather than
    executed.
    """

    def __init__(self, message: str, reason: str = "filtered"):
        super().__init__(message)
        self.reason = reason


class ExecutionError(AccordionError):
    """Raised when a query fails at runtime inside an operator."""


class OffloadError(ExecutionError):
    """Base class for failures of the ``repro.parallel`` pool transport."""


class WorkerCrashedError(OffloadError):
    """A pool worker died (or overran its job deadline and was killed)
    and the job's bounded retry budget is exhausted.

    The client never hangs on a dead worker: every in-flight job
    on the crashed process resolves immediately, pure jobs are retried
    up to ``ParallelConfig.max_retries`` times on surviving workers, and
    only then does this structured error reach the caller.
    """

    def __init__(self, message: str, kind: str | None = None, retries: int = 0):
        super().__init__(message)
        self.kind = kind
        self.retries = retries


class WorkerJobError(OffloadError):
    """A job raised inside a worker.  Deterministic given the job inputs,
    so it is *not* retried; carries the remote traceback for diagnosis."""

    def __init__(self, message: str, kind: str | None = None,
                 remote_traceback: str = ""):
        super().__init__(message)
        self.kind = kind
        self.remote_traceback = remote_traceback


class QueryFailedError(ExecutionError):
    """A query reached the FAILED state (unrecoverable fault or operator
    error).  Carries the structured fault history collected by the
    coordinator so callers can distinguish *what* killed the query: node
    losses, task crashes, exhausted retry budgets, RPC give-ups, or a
    plain operator exception.
    """

    def __init__(
        self,
        message: str,
        query_id: int | None = None,
        fault_history: list | None = None,
        cause: BaseException | None = None,
    ):
        super().__init__(message)
        self.query_id = query_id
        self.fault_history = list(fault_history or [])
        self.cause = cause

    def describe(self) -> str:
        lines = [str(self)]
        for event in self.fault_history:
            lines.append(f"  [{event.get('t', 0.0):10.4f}] {event.get('kind')}: "
                         f"{event.get('detail', '')}")
        return "\n".join(lines)


class QueryRejectedError(AccordionError):
    """The admission controller refused to run a query.

    Raised (from :meth:`QueryHandle.result` / :meth:`QueryHandle.wait`)
    when a submission exceeds the workload policy's limits and either the
    queue timeout expires or the controller rejects it outright.
    """

    def __init__(
        self,
        message: str,
        tenant: str | None = None,
        reason: str = "rejected",
        queued_seconds: float = 0.0,
        prediction=None,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.queued_seconds = queued_seconds
        #: The :class:`repro.Prediction` behind an SLO rejection
        #: (``reason="predicted-miss"``); None for policy rejections.
        self.prediction = prediction


class QueryCancelledError(QueryFailedError):
    """A query was cancelled (``QueryHandle.cancel()``).

    Cancellation is a *clean* teardown: running drivers receive end
    signals (Section 4.3/4.4) so stateful operators flush and buffers
    drain instead of being ripped out mid-quantum.  Subclasses
    :class:`QueryFailedError` so existing ``except QueryFailedError``
    handlers treat a cancelled query as a failed one.
    """

    def __init__(self, message: str, query_id: int | None = None,
                 reason: str = "cancelled"):
        super().__init__(message, query_id=query_id)
        self.reason = reason


class SimulationLivelockError(AccordionError, RuntimeError):
    """The simulation processed ``max_events`` events without finishing.

    Distinguishes a livelocked event loop from a genuine query failure in
    fault tests.  ``now`` is the virtual time at which the guard tripped and
    ``events_processed`` the kernel's lifetime event count.
    """

    def __init__(self, message: str, now: float = 0.0, events_processed: int = 0):
        super().__init__(message)
        self.now = now
        self.events_processed = events_processed


class InvariantViolation(AccordionError):
    """Internal engine invariant broken; indicates a bug, not a user error."""


class ScriptError(AccordionError):
    """Raised by the experiment scripting language front end (Section 6.1)."""
