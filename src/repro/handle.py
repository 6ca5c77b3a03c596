"""Submission and QueryHandle: one user-visible query, and its public face.

Every ``engine.submit(sql)`` / ``Session.submit(sql)`` creates one
:class:`Submission` — the single per-query object the lifecycle steps in
``engine.py`` act on (DESIGN.md "Query lifecycle") — and returns the
:class:`QueryHandle` bound to it.  Everything a user does with a queued,
running or finished query hangs off the handle: materialising the
result, runtime DOP tuning (``.tuning``), structured traces and profiles
from the obs layer (``.trace()`` / ``.profile()``), progress
introspection, and fault reporting.  The physical
:class:`~repro.cluster.coordinator.QueryExecution` serving the query
stays reachable via ``.execution`` (and attribute delegation) for code
that pokes at engine internals.

Once the query has retired, the handle is the only path to that
execution: the engine keeps a frozen record of it and nothing more
(DESIGN.md §17), so the handle's lifetime is the graph's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cluster import QueryExecution, QueryOptions
from .cluster.coordinator import QueryLifecycle
from .errors import ExecutionError, QueryCancelledError, QueryFailedError
from .pages import Page

if TYPE_CHECKING:  # pragma: no cover
    from .autotune import ElasticQuery
    from .engine import AccordionEngine
    from .obs import Decision, ProfileReport, QueryTrace
    from .sharing import SharingInfo
    from .sim import SimKernel
    from .workload import Session


@dataclass
class QueryResult:
    """Materialised result of a finished query."""

    rows: list[tuple]
    columns: list[str]
    elapsed_seconds: float
    initialization_seconds: float
    #: The physical execution that served the query (``None`` for a
    #: result-cache hit).
    query: QueryExecution | None

    @property
    def num_rows(self) -> int:
        return len(self.rows)


class Submission(QueryLifecycle):
    """One user-visible query, from submit to its terminal state.

    ``state`` starts ``queued``; admission moves it to ``running`` (or
    ``rejected`` / ``cancelled`` straight from the queue), and the route
    that serves it moves it to ``finished`` / ``failed`` / ``cancelled``.
    ``route`` says how it is served once running: ``unshared`` (its own
    physical execution), ``carrier`` (its execution also serves others),
    ``folded`` (rides a carrier's execution) or ``cached`` (answered from
    the result cache).  A session submission is the workload layer's
    record of its query (``engine.workload.records``) until it is
    terminal; then a frozen ``SubmissionRecord`` takes its slot.
    """

    def __init__(
        self,
        kernel: "SimKernel",
        sql: str,
        options: QueryOptions | None = None,
        session: "Session | None" = None,
        deadline: float | None = None,
        memory_bytes: int | None = None,
    ):
        super().__init__(kernel, "queued")
        self.sql = sql
        self.options = options or QueryOptions()
        #: ``None`` for submissions made outside any session.
        self.tenant = session.tenant if session is not None else None
        self.priority = session.priority if session is not None else 0.0
        #: Virtual seconds from submission, and the absolute instant.
        self.deadline = deadline
        self.deadline_at = kernel.now + deadline if deadline is not None else None
        #: Memory grant: declared, pre-granted from a prediction, or the
        #: workload default.
        self.memory_bytes = memory_bytes
        self.admitted_at: float | None = None
        #: Allocated when the query is routed; ``None`` while queued.
        self.query_id: int | None = None
        self.route = "unshared"
        #: Front-end output (``plan.cache.PreparedQuery``), the physical
        #: plan, and the demand-history template, each computed once.
        self.prepared = None
        self.plan = None
        self.template: str | None = None
        #: The predict step's ``repro.Prediction`` (``None`` without
        #: history); the execution carries the one refreshed at start.
        self.prediction = None
        #: The physical execution serving this query; ``None`` while
        #: queued, when rejected or cached, and for a carrier still
        #: inside its fold window.
        self.execution: QueryExecution | None = None
        #: Sharing-specific state (``sharing.SharedConsumer``) for the
        #: carrier / folded / cached routes.
        self.shared = None
        #: The answer, for routes that do not own ``execution``'s output.
        self.page: Page | None = None
        self.rows: int | None = None
        #: Admission bookkeeping; ``seq`` numbers session submissions in
        #: arrival order (0 outside a session).
        self.seq = 0
        self.cores = 0
        self.timeout_event = None

    # -- derived timing ----------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Virtual seconds since admission (0.0 if never admitted)."""
        if self.admitted_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else self.kernel.now
        return end - self.admitted_at

    @property
    def initialization_seconds(self) -> float:
        execution = self.execution
        if execution is None or execution.started_at is None:
            return 0.0
        return max(0.0, execution.started_at - self.admitted_at)

    @property
    def queue_seconds(self) -> float | None:
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    @property
    def latency(self) -> float | None:
        """Submission-to-completion, including queueing (None until done)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def deadline_met(self) -> bool | None:
        if self.deadline_at is None:
            return None
        return self.succeeded and self.finished_at <= self.deadline_at

    @property
    def billed(self) -> bool:
        """Whether this query occupies resources of its own: folded and
        cached submissions ride along and count against no admission cap
        (the carrier already pays for the cores and memory)."""
        return self.route in ("unshared", "carrier")

    # -- terminal transitions ----------------------------------------------
    def complete(self, page: Page) -> None:
        """Finished with an answer derived outside ``execution``'s output."""
        if not self.finished:
            self.page = page
            self.rows = page.num_rows
            self._finish("finished")

    def fail(self, exc: Exception) -> None:
        if not isinstance(exc, QueryFailedError):
            exc = QueryFailedError(str(exc), query_id=self.query_id, cause=exc)
        self._finish("failed", exc)

    def cancelled_by(self, reason: str) -> None:
        self._finish(
            "cancelled",
            QueryCancelledError(
                f"query {self.query_id} cancelled: {reason}",
                query_id=self.query_id,
                reason=reason,
            ),
        )

    def mirror(self, execution: QueryExecution) -> None:
        """The unshared route: this query *is* its execution."""
        if execution.succeeded:
            self.rows = execution.result_rows
        self._finish(execution.state, execution.error)


class QueryHandle:
    """Live handle to one submitted query (see module docstring); it
    keeps the query's execution graph alive, the engine does not.

    ``state`` is ``"queued"`` while the workload layer's admission
    controller holds the submission; admission moves it to ``"running"``,
    a queue timeout / policy rejection to the terminal ``"rejected"``.
    Handles returned by ``engine.submit()`` are admitted immediately.
    """

    def __init__(self, engine: "AccordionEngine", submission: Submission):
        self._engine = engine
        self._submission = submission

    # -- identity / state --------------------------------------------------
    @property
    def engine(self) -> "AccordionEngine":
        return self._engine

    @property
    def execution(self) -> QueryExecution | None:
        """The physical execution serving this query (``None`` while
        queued, when rejected or cached, or inside a fold window)."""
        return self._submission.execution

    @property
    def id(self) -> int | None:
        return self._submission.query_id

    @property
    def sql(self) -> str:
        return self._submission.sql

    @property
    def state(self) -> str:
        """One of ``queued``, ``rejected``, ``running``, ``finished``,
        ``failed``, ``cancelled``."""
        return self._submission.state

    @property
    def finished(self) -> bool:
        """Terminal: finished, failed, cancelled, or rejected."""
        return self._submission.finished

    @property
    def succeeded(self) -> bool:
        return self._submission.succeeded

    @property
    def failed(self) -> bool:
        """Failed or rejected (cancellation is reported separately)."""
        return self._submission.failed

    @property
    def cancelled(self) -> bool:
        return self._submission.cancelled

    @property
    def error(self):
        """The structured error for a rejected/failed/cancelled query."""
        return self._submission.error

    @property
    def elapsed(self) -> float:
        return self._submission.elapsed

    @property
    def initialization_seconds(self) -> float:
        return self._submission.initialization_seconds

    # -- lifecycle ---------------------------------------------------------
    def cancel(self, reason: str = "cancelled by user") -> None:
        """Cancel this query with clean task teardown.

        Running queries receive end signals (Section 4.3/4.4) so stateful
        operators flush and pipelines drain; queued submissions are
        removed from the admission queue; a query riding a shared
        execution detaches from it, and only the last detach cancels the
        execution.  Subsequent ``result()`` / ``wait()`` raise / report
        the structured :class:`~repro.errors.QueryCancelledError`.
        Cancelling a terminal query is a no-op.
        """
        sub = self._submission
        if sub.finished:
            return
        if sub.state == "queued":
            self._engine.workload.admission.cancel_queued(sub, reason)
        elif sub.shared is not None:
            sub.shared.group.detach(sub.shared, reason)
        else:
            sub.execution.cancel(reason)

    def wait(self, timeout: float | None = None) -> bool:
        """Advance the simulation until this query is terminal.

        ``timeout`` is in *virtual* seconds (``None``: no bound).  Returns
        whether the query reached a terminal state; unlike ``result()`` it
        does not raise on failure/rejection — inspect ``state`` /
        ``error``.
        """
        sub = self._submission
        if not sub.finished:
            kernel = self._engine.kernel
            until = None if timeout is None else kernel.now + timeout
            kernel.run(until=until, awaiting=sub)
        return sub.finished

    def on_done(self, fn) -> None:
        """Call ``fn(handle)`` once this query is terminal (admitted or
        not); fires immediately if it already is."""
        self._submission.on_done(lambda _sub: fn(self))

    # -- results -----------------------------------------------------------
    def result(self, max_virtual_seconds: float = 1e7) -> QueryResult:
        """Run the simulation to this query's completion and materialise.

        Raises the query's structured :class:`QueryFailedError` /
        :class:`QueryCancelledError` / :class:`QueryRejectedError` if it
        did not succeed, and :class:`ExecutionError` if it cannot finish
        within ``max_virtual_seconds``."""
        if not self.finished:
            self._engine.run_until_done(self, max_virtual_seconds)
        return self._materialize()

    def _materialize(self) -> QueryResult:
        sub = self._submission
        if sub.error is not None:
            raise sub.error
        if not sub.finished:
            raise ExecutionError(f"{self!r} has not finished")
        page = sub.page if sub.page is not None else sub.execution.result()
        return QueryResult(
            rows=page.rows(),
            columns=page.schema.names(),
            elapsed_seconds=sub.elapsed,
            initialization_seconds=sub.initialization_seconds,
            query=sub.execution,
        )

    # -- runtime elasticity ------------------------------------------------
    @property
    def tuning(self) -> "ElasticQuery":
        """Runtime DOP tuning interface (paper Sections 4-5); tuning a
        carrier or folded query tunes the shared physical execution.

        Only available in Accordion mode — baseline engines (Presto /
        Prestissimo) have elasticity disabled and raise here — and only
        for a query with a live execution: not while queued, for a cached
        answer, or for a carrier still inside its fold window."""
        execution = self._submission.execution
        if execution is None:
            raise ExecutionError(f"{self!r} has no live execution to tune")
        return self._engine._elastic_for(execution)

    # -- prediction --------------------------------------------------------
    @property
    def prediction(self):
        """The :class:`repro.Prediction` attached to the execution
        serving this query — or, before/without one, the prediction the
        admission gate made.  ``None`` when prediction is off or the
        query's template had no history yet."""
        sub = self._submission
        if sub.execution is not None:
            return sub.execution.prediction
        return sub.prediction

    @property
    def prediction_error(self) -> float | None:
        """Relative runtime prediction error ``|observed - predicted| /
        predicted``, populated when the query finishes; ``None`` without
        a prediction or before completion."""
        execution = self._submission.execution
        return execution.prediction_error if execution is not None else None

    # -- sharing -----------------------------------------------------------
    @property
    def sharing(self) -> "SharingInfo":
        """How this submission was served by the sharing layer
        (DESIGN.md §14): its role (``unshared`` / ``carrier`` /
        ``folded`` / ``cached``), the carrier query id it folded into,
        whether it was a result-cache hit, and the base-table pages it
        avoided re-reading.  Always available; reports ``unshared`` when
        sharing is disabled or the plan was not shareable."""
        from .sharing import sharing_info

        return sharing_info(self._submission)

    # -- observability -----------------------------------------------------
    def trace(self) -> "QueryTrace":
        """This query's span tree (requires ``EngineConfig.with_tracing()``).

        ``trace().to_chrome_json(path)`` writes a Chrome trace-event file
        that loads in Perfetto."""
        tracer = self._engine.tracer
        if not tracer.enabled:
            raise ExecutionError(
                "tracing is not enabled; construct the engine with "
                "EngineConfig().with_tracing()"
            )
        from .obs import QueryTrace, throughput_counters

        sub = self._submission
        trace = QueryTrace(tracer, sub.query_id, finished_at=sub.finished_at)
        trace.counters = throughput_counters(
            sub.execution.tracker if sub.execution is not None else None
        )
        return trace

    def profile(self) -> "ProfileReport":
        """Wall-clock operator attribution for this query (requires
        ``EngineConfig.with_tracing(profiling=True)``)."""
        tracer = self._engine.tracer
        if tracer.profiler is None:
            raise ExecutionError(
                "profiling is not enabled; construct the engine with "
                "EngineConfig().with_tracing(profiling=True)"
            )
        return tracer.profiler.report(self.id)

    # -- introspection -----------------------------------------------------
    def progress(self) -> dict[int, float]:
        """Scan progress per table-scan stage of the serving execution
        (empty while there is none)."""
        execution = self._submission.execution
        return execution.progress() if execution is not None else {}

    def progress_bars(self, width: int = 30) -> str:
        execution = self._submission.execution
        return execution.progress_bars(width) if execution is not None else ""

    def decisions(self) -> "list[Decision]":
        """Every control decision taken about this query, in order, until
        it ended: admission, routing, pre-grants, bids, revocations,
        tuning, faults and recovery — recorded under its own id, under
        the id of the execution serving it, or (before routing gave it an
        id) under its admission sequence number."""
        sub = self._submission
        ids = {sub.query_id, sub.execution.id if sub.execution else None}
        end = sub.finished_at if sub.finished else float("inf")
        return [d for d in self._engine.decisions.about(ids, sub.seq) if d.time <= end]

    def fault_report(self) -> str:
        """Failure/recovery counters and fault timeline for this query."""
        from .obs.report import render_fault_report

        return render_fault_report(self)

    def describe(self) -> str:
        sub = self._submission
        if sub.shared is not None:
            return sub.shared.describe()
        if sub.execution is not None:
            return sub.execution.describe()
        return f"query {sub.query_id}: {sub.state}"

    def __repr__(self) -> str:
        return f"QueryHandle(id={self.id}, state={self.state})"

    # Engine-internal code and existing tests address QueryExecution fields
    # (``.stages``, ``.tracker``, ``.memory``, ...) directly; delegate
    # anything QueryHandle does not define itself.
    def __getattr__(self, name: str):
        execution = self._submission.execution
        if execution is None:
            raise AttributeError(
                f"QueryHandle has no attribute {name!r} (query is "
                f"{self._submission.state}; no execution is bound)"
            )
        return getattr(execution, name)
