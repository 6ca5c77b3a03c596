"""Coordinator: query lifecycle management.

Parses, analyzes, plans, and schedules queries; collects result pages from
stage 0; owns the RPC tracker and each query's throughput sampler.  The
runtime DOP tuning module and the auto-tuner (``repro.elastic``,
``repro.autotune``) plug in on top of the structures created here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..config import EngineConfig
from ..data import Catalog, SplitLayout
from ..errors import ExecutionError, QueryCancelledError, QueryFailedError
from ..exec.memory import MemoryRecord, QueryMemory
from ..obs.decisions import fault_timeline
from ..obs.throughput import Sampler
from ..pages import Page, concat_pages
from ..plan.cache import PreparedQuery, prepare
from ..plan.physical import PhysicalPlan
from ..plan.physical_planner import PhysicalPlanner
from ..sim import SimKernel
from ..util import RetiredRing
from .cluster import Cluster
from .rpc import RpcTracker
from .scheduler import Scheduler
from .stage import StageExecution


#: The options the physical planner reads, in the order their values
#: enter a query's template id (``PreparedQuery.template``).
PLAN_SHAPING = (
    "join_distribution", "shuffle_stage_tables", "partial_pushdown",
)


@dataclass
class QueryOptions:
    """Per-query session options."""

    #: "auto" picks broadcast for small build sides (below the planner's
    #: ``BROADCAST_THRESHOLD_ROWS``); "partitioned" and "broadcast" force
    #: the distribution (Presto's join_distribution_type).
    join_distribution: str = "auto"
    #: Tables whose scans get a dedicated downstream shuffle stage (4.6).
    shuffle_stage_tables: frozenset[str] = frozenset()
    #: Initial DOPs (None -> engine defaults).
    initial_stage_dop: int | None = None
    initial_task_dop: int | None = None
    scan_stage_dop: int | None = None
    #: Per-stage initial DOP overrides (stage id -> task count).
    stage_dops: dict[int, int] = field(default_factory=dict)
    #: Push partial aggregations / partial topN below the shuffle.
    partial_pushdown: bool = True

    def shaping(self) -> tuple:
        """The :data:`PLAN_SHAPING` option values.  The DOP hints change
        only how wide a plan runs (the scheduler reads them), and the
        predictor rewrites them at pre-grant time, so they key neither a
        cached plan nor a query's template."""
        return tuple(getattr(self, name) for name in PLAN_SHAPING)


class QueryLifecycle:
    """The query state machine: ``state``, ``error``, timestamps, and the
    completion callbacks.  Physical executions and user-visible queries
    (:class:`repro.handle.QueryHandle`) both are one, so the terminal
    transition and ``on_done`` exist exactly once.

    ``state`` is one of ``queued`` / ``rejected`` (handles only),
    ``running``, ``finished``, ``failed``, ``cancelled``.
    """

    def __init__(self, kernel: SimKernel, state: str):
        self.kernel = kernel
        self.state = state
        self.error: Exception | None = None
        self.submitted_at = kernel.now
        self.finished_at: float | None = None
        self.failed_at: float | None = None
        self._done_callbacks: list = []
        #: The decision streams this query keeps (DESIGN.md §17).
        self._decision_streams: list = []

    def own_decisions(self, **key) -> None:
        """Keep the decisions recorded from now on under ``query_id=`` or
        ``seq=``: they live as long as this object does."""
        self._decision_streams.append(self.kernel.decisions.own(**key))

    @property
    def finished(self) -> bool:
        """Terminal (finished, failed, cancelled *or* rejected) — periodic
        samplers key off this."""
        return self.finished_at is not None

    @property
    def succeeded(self) -> bool:
        return self.state == "finished"

    @property
    def failed(self) -> bool:
        return self.state in ("failed", "rejected")

    @property
    def cancelled(self) -> bool:
        return self.state == "cancelled"

    def on_done(self, fn) -> None:
        """Call ``fn(self)`` once terminal; immediately if already so."""
        if self.finished:
            fn(self)
        else:
            self._done_callbacks.append(fn)

    def _enter(self, state: str, error: Exception | None = None) -> None:
        """Record a terminal state; :meth:`_fire_done` must follow."""
        self.state = state
        self.error = error
        self.finished_at = self.kernel.now
        if state == "failed":
            self.failed_at = self.kernel.now

    def _fire_done(self) -> None:
        callbacks, self._done_callbacks = self._done_callbacks, []
        for fn in callbacks:
            fn(self)

    def _finish(self, state: str, error: Exception | None = None) -> None:
        """Terminal transition without teardown; no-op once terminal."""
        if not self.finished:
            self._enter(state, error)
            self._fire_done()


class QueryExecution(QueryLifecycle):
    """All runtime state of one physical query execution."""

    def __init__(
        self,
        query_id: int,
        kernel: SimKernel,
        sql: str,
        plan: PhysicalPlan,
        config: EngineConfig,
        options: QueryOptions,
        metrics=None,
        on_retired: "Callable[[QueryExecution], None] | None" = None,
    ):
        super().__init__(kernel, "running")
        self.id = query_id
        self.own_decisions(query_id=query_id)
        self.sql = sql
        self.plan = plan
        self.config = config
        self.options = options
        #: Per-query memory budget + spill accounting (DESIGN.md §13).
        self.memory = QueryMemory(
            query_id, config.memory, config.cost, kernel=kernel, metrics=metrics
        )
        self.stages: dict[int, StageExecution] = {}
        self.result_pages: list[Page] = []
        self.result_rows = 0
        self.started_at: float | None = None
        self.init_requests = 0
        #: Control-plane requests charged to this query, copied from the
        #: RPC tracker when it retires: the tracker's ring forgets it.
        self.rpc_requests: int | None = None
        #: Its operator profile rows, moved off the profiler when it
        #: retires (None until then, or when profiling is off).
        self.profile_rows: list | None = None
        self.tracker: Sampler | None = None
        #: Demand prediction attached at submission (``repro.predict``);
        #: None when prediction is off or the template has no history.
        self.prediction = None
        #: Template fingerprint under which this run's demand is recorded.
        self.prediction_template: str | None = None
        #: Relative |observed - predicted| runtime error, set on finish.
        self.prediction_error: float | None = None
        #: Predicted bytes reserved on nodes by this query's placed tasks,
        #: as (node, bytes); released when the query retires.
        self.reservations: list[tuple] = []
        #: Runtime DOP tuning controls (``repro.autotune.ElasticQuery``),
        #: created on first use by ``engine._elastic_for``.
        self.elastic = None
        #: Root of this query's trace span tree (-1 when tracing is off).
        self.trace_span = kernel.tracer.begin(
            "query", f"Q{query_id}", node="coordinator", query_id=query_id, sql=sql
        )
        #: Called once every task has sealed (the coordinator swaps this
        #: execution for its :class:`QueryRecord`).  Sealed tasks return
        #: ``_seal_when_idle`` early, so it fires once.
        self.on_retired = on_retired

    # -- results ----------------------------------------------------------
    def collect_output(self, page: Page) -> None:
        self.result_pages.append(page)
        self.result_rows += page.num_rows

    def result(self) -> Page:
        schema = self.plan.root.schema
        return concat_pages(schema, self.result_pages)

    # -- lifecycle ----------------------------------------------------------
    def task_finished(self, stage: StageExecution, task) -> None:
        if self.state != "running":
            self._seal_when_idle()
            return
        if stage.finished:
            self.kernel.tracer.end(stage.trace_span)
        if stage.id == 0 and stage.finished:
            self._terminate("finished", None, rows=self.result_rows)

    def task_errored(self, stage: StageExecution, task, exc: Exception) -> None:
        """An operator raised inside a driver quantum: fail the query,
        propagating the error task -> coordinator with full context."""
        self.kernel.decisions.record(
            "fault", "task_error", query_id=self.id, stage=stage.id,
            node=task.node.name, reason=f"{task.task_id} on {task.node.name}: {exc}",
        )
        self.fail(
            QueryFailedError(
                f"task {task.task_id} failed: {exc}",
                query_id=self.id,
                cause=exc,
            )
        )

    def fault_history(self) -> list[dict]:
        """Faults and recovery actions that touched this query, as
        ``[{"t", "kind", "detail"}]`` (a view of the decision log)."""
        return fault_timeline(self.kernel.decisions.of(query_id=self.id))

    def fail(self, error: QueryFailedError) -> None:
        """Terminal failure: complete ``error`` with this query's id and
        fault history, fire completion callbacks, and quiesce every
        running task so the event loop drains (a failed query must never
        hang the simulation)."""
        if self.state != "running":
            return
        if error.query_id is None:
            error.query_id = self.id
        if not error.fault_history:
            error.fault_history = self.fault_history()
        self._terminate("failed", error, failed=True, error=str(error))

    def cancel(self, reason: str = "cancelled") -> None:
        """Terminal cancellation with *clean* task teardown.

        Unlike :meth:`fail` (which crashes tasks mid-quantum), cancel
        sends end signals (Section 4.3/4.4): each running driver injects
        an end page on its next quantum, stateful operators flush, and
        the pipelines drain within bounded virtual time.  Tasks that were
        scheduled but have no drivers yet are torn down directly —
        there is nothing to flush.
        """
        if self.state != "running":
            return
        self.kernel.decisions.record(
            "fault", "cancelled", query_id=self.id, reason=reason
        )
        error = QueryCancelledError(
            f"query {self.id} cancelled: {reason}", query_id=self.id, reason=reason
        )
        error.fault_history = self.fault_history()
        self._terminate("cancelled", error, cancelled=True, reason=reason)

    def _terminate(self, state: str, exc, /, **trace_meta) -> None:
        """The one terminal transition: record the state, quiesce the
        tasks still running, close the trace spans, fire callbacks."""
        self._enter(state, exc)
        for stage in self.stages.values():
            for task in stage.tasks:
                if task.finished:
                    continue
                started = any(p.drivers for p in task.pipelines)
                if state == "failed":
                    task.crash(reason="query failed")
                elif state == "cancelled":
                    task.request_end()
                    if not started:
                        task.crash(reason="cancelled before start")
                elif not started:
                    # Attached while the query was finishing; its start
                    # is still behind the control-plane RPCs and will be
                    # skipped (topology.start_after).
                    task.crash(reason="query finished before start")
        tracer = self.kernel.tracer
        if tracer.enabled:
            for stage in self.stages.values():
                tracer.end(stage.trace_span)
            tracer.end(self.trace_span, **trace_meta)
        self._fire_done()
        self._sealing = True
        self._seal_when_idle()

    #: Set once the completion callbacks have read this execution.
    _sealing = False

    def _seal_when_idle(self) -> None:
        """Retirement (DESIGN.md §17): once terminal and once no task runs,
        holds a core or has a fetch in flight, every task drops its pages
        and operator state.  A busy task calls back when it idles."""
        tasks = [task for stage in self.stages.values() for task in stage.tasks]
        for task in tasks:
            if not self._sealing or task.sealed or not task.finished:
                return  # ``_terminate`` or ``task_finished`` calls back
            if task.inflight_quanta:
                return task.when_quanta_drained(self._seal_when_idle)
            for client in task.exchange_clients.values():
                if client.fetching:
                    client.on_idle = self._seal_when_idle
                    return
        for task in tasks:
            task.seal()
        if self.on_retired is not None:
            self.on_retired(self)

    # -- introspection -----------------------------------------------------
    def progress(self) -> dict[int, float]:
        """Scan progress per table-scan stage, in [0, 1].

        The Accordion main UI shows exactly these progress bars: because
        execution is streaming, table-scan progress is a reliable
        approximation of overall query progress (paper Section 5.2).
        """
        out = {}
        for stage_id, stage in self.stages.items():
            value = stage.scan_progress()
            if value is not None:
                out[stage_id] = value
        return out

    def progress_bars(self, width: int = 30) -> str:
        """ASCII rendering of the main-UI progress tracking box."""
        lines = []
        for stage_id, value in sorted(self.progress().items()):
            filled = int(round(value * width))
            table = self.stages[stage_id].fragment.source_table or ""
            lines.append(
                f"S{stage_id:<3} {table:<10} [{'#' * filled}{'.' * (width - filled)}] "
                f"{100 * value:5.1f}%"
            )
        return "\n".join(lines)

    def stage(self, stage_id: int) -> StageExecution:
        try:
            return self.stages[stage_id]
        except KeyError:
            raise ExecutionError(f"query {self.id} has no stage {stage_id}") from None

    def describe(self) -> str:
        lines = [f"query {self.id}: {self.state}"]
        for stage_id in sorted(self.stages):
            lines.append("  " + self.stages[stage_id].describe())
        return "\n".join(lines)


@dataclass(frozen=True)
class StageRecord:
    """A retired stage, as usage accounting reads it."""

    cpu: float

    def cpu_seconds(self) -> float:
        return self.cpu


@dataclass(frozen=True)
class QueryRecord:
    """What the coordinator keeps of a retired execution (DESIGN.md §17):
    the fields engine-wide readers use — usage accounting reads
    ``stages[...].cpu_seconds()`` and ``memory.stats()`` — and no task,
    page or plan.  The execution itself lives as long as a handle (or a
    :class:`~repro.handle.QueryResult`) holds it."""

    id: int
    sql: str
    state: str
    prediction_error: float | None
    stages: dict[int, StageRecord]
    memory: MemoryRecord
    #: A retired query reserves nothing on any node.
    reservations = ()

    @classmethod
    def of(cls, query: QueryExecution) -> "QueryRecord":
        return cls(
            query.id, query.sql, query.state, query.prediction_error,
            {sid: StageRecord(s.cpu_seconds()) for sid, s in query.stages.items()},
            MemoryRecord(query.memory.stats()),
        )


class Coordinator:
    def __init__(
        self,
        kernel: SimKernel,
        cluster: Cluster,
        catalog: Catalog,
        split_layout: SplitLayout,
        config: EngineConfig,
        metrics=None,
    ):
        self.kernel = kernel
        self.cluster = cluster
        self.catalog = catalog
        self.split_layout = split_layout
        self.config = config
        self.rpc = RpcTracker(kernel, config.cost)
        self.rpc.on_action_failed = self._action_failed
        self.scheduler = Scheduler(kernel, cluster, config, self.rpc, split_layout)
        #: Every physical execution not yet retired, then the newest
        #: ``RETAINED_QUERIES`` retired ones as their :class:`QueryRecord`,
        #: in submission order (DESIGN.md §17).
        self.queries: dict[int, QueryExecution | QueryRecord] = {}
        self._retired = RetiredRing(self.queries, self.rpc.query_requests)
        #: The unfinished subset of ``queries`` (insertion = id order);
        #: usage accounting iterates this, not the full history.
        self.running: dict[int, QueryExecution] = {}
        self._ids = itertools.count(1)
        # Plan-cache traffic from *this* coordinator.  The cache itself is
        # process-wide, but the counters live in the per-engine registry so
        # two engines in one process never cross-contaminate each other's
        # metrics.
        if metrics is None:
            from ..obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self._plan_cache_hits = metrics.counter("plan_cache.hits")
        self._plan_cache_misses = metrics.counter("plan_cache.misses")
        # Lazy import: repro.faults.recovery needs the execution structures
        # defined in this module.
        from ..faults.recovery import RecoveryManager

        self.recovery = RecoveryManager(self)

    @property
    def plan_cache_hits(self) -> int:
        return self._plan_cache_hits.value

    @property
    def plan_cache_misses(self) -> int:
        return self._plan_cache_misses.value

    @property
    def retired_dropped(self) -> int:
        """Retired queries whose records left ``queries`` (the oldest
        past ``RETAINED_QUERIES``): while 0, ``queries`` holds every
        execution this coordinator started, and a position in it stays
        the same query."""
        return self._retired.dropped

    def _action_failed(self, query_id: int | None, message: str) -> None:
        """A control-plane action exhausted its RPC retries.  Its give-up
        fires when the retries run out, which may be after its query
        ended: a query no longer running has nothing left to fail.  An
        action no query owns (a drain announcement) fails no query; its
        give-up is only recorded."""
        if query_id is None:
            self.kernel.decisions.record("fault", "rpc_gave_up", reason=message)
            return
        query = self.running.get(query_id)
        if query is not None:
            self.kernel.decisions.record(
                "fault", "rpc_gave_up", query_id=query_id, reason=message
            )
            query.fail(QueryFailedError(message, query_id=query_id))

    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> PreparedQuery:
        """The front end for ``sql`` (memoized unless ``plan_cache`` is off)."""
        return prepare(self.catalog, sql, memo=self.config.plan_cache)

    def plan_sql(
        self,
        sql: str,
        options: QueryOptions,
        prepared: PreparedQuery | None = None,
    ) -> PhysicalPlan:
        """Physical plan for ``sql``; ``prepared`` is its front-end output
        when the caller already holds it.  Plans hang off the prepared
        entry, keyed by exactly what the planner reads."""
        if prepared is None:
            prepared = self.prepare(sql)
        elasticity = self.config.elasticity_enabled
        key = (options.shaping(), elasticity)
        if self.config.plan_cache:
            plan = prepared.plans.get(key)
            if plan is not None:
                self._plan_cache_hits.add()
                return plan
            self._plan_cache_misses.add()
        plan = PhysicalPlanner(self.catalog, options, elasticity).plan(prepared.logical)
        if self.config.plan_cache:
            prepared.plans[key] = plan
        return plan

    def next_query_id(self) -> int:
        """Allocate a query id from the engine-wide sequence.

        Submissions served by a shared execution (``repro.sharing``) draw
        their ids here so every user-visible query — physical or folded —
        has a unique id, while only physical executions live in
        ``queries`` (usage accounting and fault targeting iterate those)."""
        return next(self._ids)

    def create(
        self, sql: str, plan: PhysicalPlan, options: QueryOptions
    ) -> QueryExecution:
        """A new physical execution of ``plan``, not yet scheduled — the
        caller may still attach what placement reads (its prediction)."""
        query = QueryExecution(
            next(self._ids), self.kernel, sql, plan, self.config, options,
            metrics=self.metrics, on_retired=self._keep_record,
        )
        self.queries[query.id] = self.running[query.id] = query
        query.on_done(self._retire)
        return query

    def _retire(self, query: QueryExecution) -> None:
        del self.running[query.id]
        # Spill files live only as long as the query: success, failure,
        # and cancellation all clean up the per-query spill directory.
        query.memory.cleanup()
        self.scheduler.release(query)

    def _keep_record(self, query: QueryExecution) -> None:
        """Every task of ``query`` sealed: keep its record in its place
        (``queries`` keeps creation order), not its graph, while it is
        among the newest retired."""
        query.rpc_requests = self.rpc.requests_for(query.id)
        if (profiler := self.kernel.tracer.profiler) is not None:
            query.profile_rows = profiler.retire(query.id)
        self._retired.retire(query.id, QueryRecord.of(query))

    def schedule(self, query: QueryExecution) -> None:
        """Place and start ``query``'s initial tasks."""
        self.scheduler.schedule(query)
        query.tracker = Sampler(self.kernel, query)
