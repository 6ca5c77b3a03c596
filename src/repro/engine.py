"""AccordionEngine: the public facade of the library.

Bundles the simulated cluster, catalog, split layout, coordinator, runtime
DOP tuning module, auto-tuner, and observability layer behind a small API:

>>> from repro import AccordionEngine
>>> engine = AccordionEngine.tpch(scale=0.01)
>>> result = engine.execute("select count(*) from lineitem")
>>> result.rows
[(60175,)]

``submit()`` returns a :class:`QueryHandle` — the single user-facing
query object: ``.result()`` materialises, ``.tuning`` tunes DOPs while
the simulation advances (``engine.run_for`` / ``engine.run_until_done``),
``.trace()`` / ``.profile()`` expose the obs layer, ``.decisions()``
lists every control decision taken about the query
(``engine.decisions`` is the stream of every query still held), and
``.fault_report()`` summarises failure recovery.  One
:class:`~repro.config.EngineConfig` fully describes a deployment,
including cluster topology, split placement, and tracing.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .cluster.cluster import Cluster
from .cluster.coordinator import Coordinator, QueryExecution, QueryOptions
from .config import EngineConfig, presto_config, prestissimo_config
from .data.catalog import Catalog
from .data.splits import SplitLayout
from .errors import ExecutionError
from .handle import QueryHandle, QueryResult
from .obs.metrics import MetricsRegistry
from .obs.trace import NULL_TRACER, Tracer
from .sim import SimKernel

if TYPE_CHECKING:  # pragma: no cover
    from .autotune.service import ElasticQuery
    from .cluster.membership import ClusterMembership
    from .obs.decisions import DecisionLog
    from .script.plan import Plan
    from .workload.session import Session, WorkloadManager

__all__ = ["AccordionEngine", "QueryHandle", "QueryResult"]


class AccordionEngine:
    """A complete Accordion deployment on a simulated cluster."""

    def __init__(self, catalog: Catalog, config: EngineConfig | None = None):
        config = config or EngineConfig()
        self.config = config
        self.kernel = SimKernel()
        tracing = config.tracing
        if tracing.enabled or tracing.profiling:
            self.tracer = Tracer(self.kernel, tracing)
        else:
            self.tracer = NULL_TRACER
        self.kernel.tracer = self.tracer
        self.catalog = catalog
        self.cluster = Cluster(self.kernel, config.cluster)
        self.split_layout = SplitLayout(
            catalog,
            storage_nodes=config.cluster.storage_nodes,
            scheme=config.cluster.split_scheme_dict,
            node_overrides=config.cluster.node_overrides_dict,
        )
        self.metrics = MetricsRegistry()
        self.coordinator = Coordinator(
            self.kernel, self.cluster, catalog, self.split_layout, config,
            metrics=self.metrics,
        )
        self._membership: "ClusterMembership | None" = None
        self._workload: "WorkloadManager | None" = None
        #: Fold detector + result cache (DESIGN.md §14); None when off.
        self.sharing = None
        if config.sharing.enabled:
            from .sharing import SharingManager

            self.sharing = SharingManager(self)
            self.metrics.gauge("sharing", self.sharing.gauges)
        #: Learned demand predictor (repro.predict); None when off.
        self.predict_service = None
        if config.prediction.enabled:
            from .predict import DemandPredictor

            self.predict_service = DemandPredictor(self)
            self.metrics.gauge("predict", self.predict_service.gauges)
        rpc = self.coordinator.rpc
        self.metrics.gauge(
            "rpc",
            lambda: {
                "total_requests": rpc.total_requests,
                "retried_requests": rpc.retried_requests,
                "failed_requests": rpc.failed_requests,
            },
        )
        self.metrics.gauge("recovery", self.coordinator.recovery.gauges)
        self.metrics.gauge("cluster", lambda: self.membership.gauges())
        self.metrics.gauge(
            "sim",
            lambda: {
                "now": self.kernel.now,
                "events_processed": self.kernel.events_processed,
            },
        )
        self.metrics.gauge(
            "trace",
            lambda: {
                "spans": len(self.tracer.spans),
                "dropped": self.tracer.dropped,
            },
        )
        # plan_cache.hits / plan_cache.misses are per-engine counters owned
        # by this registry (created by the Coordinator above).

    # -- constructors ----------------------------------------------------
    @classmethod
    def tpch(
        cls,
        scale: float = 0.01,
        config: EngineConfig | None = None,
        seed: int = 20250622,
    ) -> "AccordionEngine":
        """Engine over a generated TPC-H database at ``scale``."""
        return cls(Catalog.tpch(scale, seed), config=config)

    @classmethod
    def presto_baseline(cls, catalog: Catalog) -> "AccordionEngine":
        """Presto baseline mode: fixed buffers, no elasticity (Figure 20)."""
        return cls(catalog, config=presto_config())

    @classmethod
    def prestissimo_baseline(cls, catalog: Catalog) -> "AccordionEngine":
        return cls(catalog, config=prestissimo_config())

    # -- query lifecycle ------------------------------------------------------
    def submit(self, sql: str, options: QueryOptions | None = None) -> QueryHandle:
        """Submit a query; advance the simulation to make it progress.

        Bypasses the workload layer: the query starts immediately, outside
        any admission limits.  Multi-tenant code paths go through
        :meth:`session` instead.  With ``EngineConfig.with_sharing()``
        the submission may fold onto a concurrent compatible query or be
        answered from the result cache — ``handle.sharing`` says which.
        """
        return self._submit(QueryHandle(self, sql, options))

    def _submit(self, query: QueryHandle) -> QueryHandle:
        """The query lifecycle, first half: prepare -> predict -> admit.

        This function and :meth:`_launch` are the only place that orders
        the lifecycle steps (DESIGN.md "Query lifecycle"); every optional
        subsystem acts on ``query`` at its step and nowhere else.
        """
        # prepare: the front end runs once; later steps read query.prepared.
        query.prepared = self.coordinator.prepare(query.sql)
        predictor = self.predict_service
        if predictor is not None:
            query.template = query.prepared.template(query.options.shaping())
        if query.tenant is None:
            # No session: admitted at once, outside every limit.
            self._launch(query)
            return query
        admission = self.workload.admission
        query.seq = next(admission.seq)
        query.own_decisions(seq=query.seq)
        # predict: pre-grant stage DOPs and memory from the template's
        # history, or reject on P(deadline miss) before queueing.
        if predictor is not None:
            miss = predictor.pregrant(query)
            if miss is not None:
                admission.reject_predicted_miss(query, miss)
                return query
        # admit: queue until the query fits the limits or the sharing
        # layer would serve it without new resources; then _launch.
        query.plan = self.coordinator.plan_sql(query.sql, query.options, query.prepared)
        admission.enqueue(query)
        return query

    def _launch(self, query: QueryHandle) -> None:
        """The query lifecycle, second half: route -> start -> record."""
        query.state = "running"
        query.admitted_at = self.kernel.now
        # route: cached / folded / carrier are served by the sharing layer
        # (a carrier's group calls _start and _record at dispatch).
        if self.sharing is not None and self.sharing.serve(query):
            return
        query.execution = self._start(query)
        query.id = query.execution.id
        query.execution.on_done(query.mirror)
        self._record(query)

    def _start(self, query: QueryHandle) -> QueryExecution:
        """start: create the physical execution of ``query``'s plan,
        attach its prediction (placement reads it), then schedule it."""
        if query.plan is None:
            query.plan = self.coordinator.plan_sql(
                query.sql, query.options, query.prepared
            )
        execution = self.coordinator.create(query.sql, query.plan, query.options)
        if self.predict_service is not None:
            self.predict_service.attach(execution, query.template)
        self.coordinator.schedule(execution)
        return execution

    def _record(self, query: QueryHandle) -> None:
        """record: ``query.execution`` now serves a session query —
        account it with the arbiter.  Deadline-constrained queries also
        need their tuning sampler from the start, so the arbiter's
        rebalance pass can estimate T_remain."""
        if query.tenant is None:
            return
        workload = self.workload
        workload.arbiter.adopt(query)
        if (
            query.deadline_at is not None
            and self.config.elasticity_enabled
            and workload.config.arbitration == "deadline"
        ):
            self._elastic_for(query.execution)

    def submit_many(
        self, sqls: list[str], options: QueryOptions | None = None
    ) -> list[QueryHandle]:
        """Submit a batch at the same virtual instant.

        With sharing enabled this maximises fold opportunities: the first
        query of each compatible class becomes the carrier and the rest
        graft onto it before any physical work starts — no fold window
        needed.  Without sharing it is just a loop over :meth:`submit`.
        """
        return [self.submit(sql, options) for sql in sqls]

    def execute(
        self,
        sql: str,
        options: QueryOptions | None = None,
        max_virtual_seconds: float = 1e7,
    ) -> QueryResult:
        """Submit and run to completion."""
        return self.submit(sql, options).result(max_virtual_seconds)

    def predict(self, sql: str, options: QueryOptions | None = None):
        """Predicted demand + runtime for ``sql`` from accumulated
        history (requires ``EngineConfig.with_prediction()``).

        Returns a frozen :class:`repro.Prediction` — per-stage demand
        series, runtime point estimate, variance, and the sample count
        backing it — or ``None`` when the query's template has no
        recorded history yet.  Side-effect free: predicting does not
        execute or admit anything.
        """
        if self.predict_service is None:
            raise ExecutionError(
                "prediction is not enabled; construct the engine with "
                "EngineConfig().with_prediction()"
            )
        return self.predict_service.predict_sql(sql, options)

    # -- multi-tenant workload ---------------------------------------------
    @property
    def membership(self) -> "ClusterMembership":
        """Runtime node join/leave/preemption (DESIGN.md §12), created on
        first use: only nodes it adds change the fleet."""
        if self._membership is None:
            from .cluster.membership import ClusterMembership

            self._membership = ClusterMembership(self.kernel, self.coordinator)
        return self._membership

    @property
    def workload(self) -> "WorkloadManager":
        """The workload layer: admission controller + resource arbiter.

        Created lazily on first use (``engine.session`` / this property),
        configured by ``EngineConfig.workload``.
        """
        if self._workload is None:
            from .workload.session import WorkloadManager

            self._workload = WorkloadManager(self)
        return self._workload

    def session(
        self, tenant: str, priority: float = 0.0, deadline: float | None = None
    ) -> "Session":
        """Open a tenant session whose submissions go through admission.

        ``priority`` orders the admission queue under the ``"priority"``
        policy; ``deadline`` (virtual seconds from each submission)
        marks queries the ``"deadline"`` arbiter may grab cores for.
        """
        return self.workload.session(tenant, priority=priority, deadline=deadline)

    # -- runtime elasticity ----------------------------------------------------
    def _elastic_for(self, execution: QueryExecution) -> ElasticQuery:
        """The runtime DOP tuning interface behind ``QueryHandle.tuning``."""
        if not self.config.elasticity_enabled:
            raise ExecutionError("an engine without elasticity does not support IQRE")
        if execution.elastic is None:
            from .autotune.service import ElasticQuery

            # Once a workload manager exists, every tuner bids through the
            # cluster-wide arbiter — including queries submitted outside a
            # session (they count as the anonymous tenant).
            arbiter = self._workload.arbiter if self._workload is not None else None
            execution.elastic = ElasticQuery(
                execution,
                self.cluster,
                self.coordinator.scheduler,
                arbiter=arbiter,
            )
        return execution.elastic

    # -- timed-action plans -------------------------------------------------
    def apply(self, plan: "Plan") -> None:
        """Apply a :class:`~repro.Plan` (DESIGN.md §7): its timed events
        fire at ``max(now, at)`` in plan order, and its RPC windows stay
        armed beside every earlier plan's, drawing their outcomes from
        ``random.Random(plan.seed)``.  Injected faults are the ``inject``
        decisions of :attr:`decisions`.  Tuning lines name a script's
        queries, so only :func:`~repro.run_script` applies those."""
        from .script.plan import apply_event

        rng = random.Random(plan.seed)
        for event in plan.events:
            apply_event(self, event, rng)

    # -- simulation control ----------------------------------------------------
    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def decisions(self) -> "DecisionLog":
        """The control decisions of every query still held and the latest
        fleet-level ones, in order, with lifetime counters (DESIGN.md §9
        "Decision log", §17); ``QueryHandle.decisions()`` is the
        per-query filter."""
        return self.kernel.decisions

    def run_until_done(
        self,
        query: "QueryHandle | QueryExecution",
        max_virtual_seconds: float = 1e7,
        max_events: int | None = None,
    ) -> None:
        """Advance the simulation until *this* query reaches a terminal
        state (finished, failed, cancelled, or — for session submissions —
        rejected by admission).

        Multi-query contract: the simulation is global, so every other
        in-flight query also makes progress while this one runs; the loop
        stops at the first event after which the *target* query is
        terminal, leaving the rest mid-flight.  Calling ``result()`` on
        several handles in any order is therefore safe and returns the
        same answers in any order.

        A query that failed or was cancelled raises its structured
        :class:`~repro.errors.QueryFailedError` /
        :class:`~repro.errors.QueryCancelledError`; a rejected submission
        raises :class:`~repro.errors.QueryRejectedError`; one that makes
        no progress raises within ``max_virtual_seconds`` / ``max_events``
        instead of hanging.
        """
        deadline = self.kernel.now + max_virtual_seconds
        self.kernel.run(until=deadline, max_events=max_events, awaiting=query)
        if query.failed or query.cancelled:
            raise query.error
        if not query.finished:
            raise ExecutionError(
                f"{query!r} did not finish within {max_virtual_seconds} "
                f"virtual seconds\n{query.describe()}"
            )

    def run_for(self, virtual_seconds: float) -> None:
        """Advance the simulation by a fixed amount of virtual time."""
        self.kernel.run(until=self.kernel.now + virtual_seconds)

    def run_until(self, virtual_time: float) -> None:
        self.kernel.run(until=virtual_time)
