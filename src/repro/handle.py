"""QueryHandle: one user-visible query, from submit to its terminal state.

Every ``engine.submit(sql)`` / ``Session.submit(sql)`` creates one
:class:`QueryHandle` — the single per-query object the lifecycle steps
in ``engine.py`` act on (DESIGN.md "Query lifecycle") and the one the
caller gets back.  The admission queue, the sharing layer's consumers
and the arbiter's entries hold this same object while the query is
queued or running.  Everything a user does with a queued, running or finished query
hangs off it: materialising the result, runtime DOP tuning
(``.tuning``), structured traces and profiles from the obs layer
(``.trace()`` / ``.profile()``), progress introspection, and fault
reporting.  The physical
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
    from .autotune.service import ElasticQuery
    from .engine import AccordionEngine
    from .obs.decisions import Decision
    from .obs.export import QueryTrace
    from .obs.profile import ProfileReport
    from .sharing import SharingInfo
    from .workload.session import Session


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


class QueryHandle(QueryLifecycle):
    """One user-visible query, from submit to its terminal state (see
    module docstring); it keeps the query's execution graph alive, the
    engine does not.

    ``state`` starts ``queued``; admission moves it to ``running`` (or
    ``rejected`` / ``cancelled`` straight from the queue), and the route
    that serves it moves it to ``finished`` / ``failed`` / ``cancelled``.
    Handles returned by ``engine.submit()`` are admitted immediately.
    ``route`` says how it is served once running: ``unshared`` (its own
    physical execution), ``carrier`` (its execution also serves others),
    ``folded`` (rides a carrier's execution) or ``cached`` (answered from
    the result cache).  Once it is terminal, only the caller holds it:
    the engine's one per-query table is ``coordinator.queries``.
    """

    def __init__(
        self,
        engine: "AccordionEngine",
        sql: str,
        options: QueryOptions | None = None,
        session: "Session | None" = None,
        deadline: float | None = None,
        memory_bytes: int | None = None,
    ):
        super().__init__(engine.kernel, "queued")
        self.engine = engine
        self.sql = sql
        self.options = options or QueryOptions()
        #: ``None`` for queries submitted outside any session.
        self.tenant = session.tenant if session is not None else None
        self.priority = session.priority if session is not None else 0.0
        #: Virtual seconds from submission, and the absolute instant.
        self.deadline = deadline
        self.deadline_at = None if deadline is None else self.submitted_at + deadline
        #: Memory grant: declared, pre-granted from a prediction, or the
        #: workload default.
        self.memory_bytes = memory_bytes
        self.admitted_at: float | None = None
        #: Allocated when the query is routed; ``None`` while queued.
        self.id: int | None = None
        self.route = "unshared"
        #: Front-end output (``plan.cache.PreparedQuery``), the physical
        #: plan, and the demand-history template, each computed once.
        self.prepared = None
        self.plan = None
        self.template: str | None = None
        #: The predict step's ``repro.Prediction`` (``None`` without
        #: history); the execution carries the one refreshed at start.
        self.admission_prediction = None
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
        #: Admission bookkeeping; ``seq`` numbers session queries in
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
        cached queries ride along and count against no admission cap
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
            exc = QueryFailedError(str(exc), query_id=self.id, cause=exc)
        self._finish("failed", exc)

    def cancelled_by(self, reason: str) -> None:
        self._finish(
            "cancelled",
            QueryCancelledError(
                f"query {self.id} cancelled: {reason}",
                query_id=self.id,
                reason=reason,
            ),
        )

    def mirror(self, execution: QueryExecution) -> None:
        """The unshared route: this query *is* its execution."""
        if execution.succeeded:
            self.rows = execution.result_rows
        self._finish(execution.state, execution.error)

    # -- lifecycle ---------------------------------------------------------
    def cancel(self, reason: str = "cancelled by user") -> None:
        """Cancel this query with clean task teardown.

        Running queries receive end signals (Section 4.3/4.4) so stateful
        operators flush and pipelines drain; queued queries are removed
        from the admission queue; a query riding a shared execution
        detaches from it, and only the last detach cancels the
        execution.  Subsequent ``result()`` / ``wait()`` raise / report
        the structured :class:`~repro.errors.QueryCancelledError`.
        Cancelling a terminal query is a no-op.
        """
        if self.finished:
            return
        if self.state == "queued":
            self.engine.workload.admission.cancel_queued(self, reason)
        elif self.shared is not None:
            self.shared.group.detach(self.shared, reason)
        else:
            self.execution.cancel(reason)

    def wait(self, timeout: float | None = None) -> bool:
        """Advance the simulation until this query is terminal.

        ``timeout`` is in *virtual* seconds (``None``: no bound).  Returns
        whether the query reached a terminal state; unlike ``result()`` it
        does not raise on failure/rejection — inspect ``state`` /
        ``error``.
        """
        if not self.finished:
            until = None if timeout is None else self.kernel.now + timeout
            self.kernel.run(until=until, awaiting=self)
        return self.finished

    # -- results -----------------------------------------------------------
    def result(self, max_virtual_seconds: float = 1e7) -> QueryResult:
        """Run the simulation to this query's completion and materialise.

        Raises the query's structured :class:`QueryFailedError` /
        :class:`QueryCancelledError` / :class:`QueryRejectedError` if it
        did not succeed, and :class:`ExecutionError` if it cannot finish
        within ``max_virtual_seconds``."""
        if not self.finished:
            self.engine.run_until_done(self, max_virtual_seconds)
        return self._materialize()

    def _materialize(self) -> QueryResult:
        if self.error is not None:
            raise self.error
        if not self.finished:
            raise ExecutionError(f"{self!r} has not finished")
        page = self.page if self.page is not None else self.execution.result()
        return QueryResult(
            rows=page.rows(),
            columns=page.schema.names(),
            elapsed_seconds=self.elapsed,
            initialization_seconds=self.initialization_seconds,
            query=self.execution,
        )

    def _serving(self, purpose: str) -> QueryExecution:
        """The execution serving this query, or a structured error saying
        why there is none (queued, rejected, cached, in a fold window)."""
        if self.execution is None:
            cached = self.route == "cached"
            why = "answered from the result cache" if cached else self.state
            raise ExecutionError(f"{self!r} has no execution to {purpose} ({why})")
        return self.execution

    # -- runtime elasticity ------------------------------------------------
    @property
    def tuning(self) -> "ElasticQuery":
        """Runtime DOP tuning interface (paper Sections 4-5); tuning a
        carrier or folded query tunes the shared physical execution.

        Only available in Accordion mode — baseline engines (Presto /
        Prestissimo) have elasticity disabled and raise here — and only
        for a query with a live execution: not while queued, for a cached
        answer, or for a carrier still inside its fold window."""
        return self.engine._elastic_for(self._serving("tune"))

    # -- prediction --------------------------------------------------------
    @property
    def prediction(self):
        """The :class:`repro.Prediction` attached to the execution
        serving this query — or, before/without one, the prediction the
        admission gate made.  ``None`` when prediction is off or the
        query's template had no history yet."""
        if self.execution is not None:
            return self.execution.prediction
        return self.admission_prediction

    @property
    def prediction_error(self) -> float | None:
        """Relative runtime prediction error ``|observed - predicted| /
        predicted``, populated when the query finishes; ``None`` without
        a prediction or before completion."""
        execution = self.execution
        return execution.prediction_error if execution is not None else None

    # -- sharing -----------------------------------------------------------
    @property
    def sharing(self) -> "SharingInfo":
        """How this query was served by the sharing layer (DESIGN.md
        §14): its role (``unshared`` / ``carrier`` / ``folded`` /
        ``cached``), the carrier query id it folded into, whether it was
        a result-cache hit, and the base-table pages it avoided
        re-reading.  Always available; reports ``unshared`` when sharing
        is disabled or the plan was not shareable."""
        from .sharing import sharing_info

        return sharing_info(self)

    # -- observability -----------------------------------------------------
    def trace(self) -> "QueryTrace":
        """The span tree of the execution serving this query (requires
        ``EngineConfig.with_tracing()``); a carrier and the queries
        folded onto it share one tree.

        ``trace().to_chrome_json(path)`` writes a Chrome trace-event file
        that loads in Perfetto."""
        tracer = self.engine.tracer
        if not tracer.enabled:
            raise ExecutionError(
                "tracing is not enabled; construct the engine with "
                "EngineConfig().with_tracing()"
            )
        from .obs.export import QueryTrace, throughput_counters

        execution = self._serving("trace")
        trace = QueryTrace(tracer, execution.id, finished_at=self.finished_at)
        trace.counters = throughput_counters(execution.tracker)
        return trace

    def profile(self) -> "ProfileReport":
        """Wall-clock operator attribution of the execution serving this
        query (requires ``EngineConfig.with_tracing(profiling=True)``)."""
        tracer = self.engine.tracer
        if tracer.profiler is None:
            raise ExecutionError(
                "profiling is not enabled; construct the engine with "
                "EngineConfig().with_tracing(profiling=True)"
            )
        execution = self._serving("profile")
        return tracer.profiler.report(execution.id, execution.profile_rows)

    # -- introspection -----------------------------------------------------
    def progress(self) -> dict[int, float]:
        """Scan progress per table-scan stage of the serving execution
        (empty while there is none)."""
        execution = self.execution
        return execution.progress() if execution is not None else {}

    def progress_bars(self, width: int = 30) -> str:
        execution = self.execution
        return execution.progress_bars(width) if execution is not None else ""

    def decisions(self) -> "list[Decision]":
        """Every control decision taken about this query, in order, until
        it ended: admission, routing, pre-grants, bids, revocations,
        tuning, faults and recovery — recorded under its own id, under
        the id of the execution serving it, or (before routing gave it an
        id) under its admission sequence number."""
        ids = {self.id, self.execution.id if self.execution else None}
        end = self.finished_at if self.finished else float("inf")
        return [d for d in self.engine.decisions.about(ids, self.seq) if d.time <= end]

    def fault_report(self) -> str:
        """Failure/recovery counters and fault timeline for this query."""
        from .obs.report import render_fault_report

        return render_fault_report(self)

    def describe(self) -> str:
        if self.shared is not None:
            return self.shared.describe()
        if self.execution is not None:
            return self.execution.describe()
        return f"query {self.id}: {self.state}"

    def __repr__(self) -> str:
        return f"QueryHandle(id={self.id}, state={self.state})"

    # Engine-internal code and existing tests address QueryExecution fields
    # (``.stages``, ``.tracker``, ``.memory``, ...) directly; delegate
    # anything QueryHandle does not define itself.  Reads ``__dict__`` so
    # a lookup before ``execution`` is set cannot recurse.
    def __getattr__(self, name: str):
        execution = self.__dict__.get("execution")
        if execution is None:
            raise AttributeError(
                f"QueryHandle has no attribute {name!r} (query is "
                f"{self.__dict__.get('state')}; no execution is bound)"
            )
        return getattr(execution, name)
