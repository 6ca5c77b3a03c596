"""Workload drivers: arrival processes, the multi-tenant runner, and the
per-tenant report.

A :class:`Workload` binds tenants (each with a query mix, an arrival
process, a priority, and optionally a deadline) to one engine and runs
them genuinely interleaved in virtual time.  Arrivals are deterministic
given (seed, trace): the Poisson process draws every inter-arrival gap
up front from a per-tenant ``random.Random`` stream, so two runs with
the same seed produce byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .policies import jain_fairness

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryOptions
    from ..engine import AccordionEngine
    from ..handle import QueryHandle


# -- arrival processes ------------------------------------------------------
@dataclass(frozen=True)
class ClosedLoop:
    """Closed loop: each completion triggers the next submission after
    ``think_time`` virtual seconds; ``count`` queries total."""

    count: int
    think_time: float = 0.0
    start: float = 0.0


@dataclass(frozen=True)
class PoissonArrivals:
    """Open arrivals: ``count`` submissions with Exp(rate) gaps."""

    rate: float  # arrivals per virtual second
    count: int
    start: float = 0.0


@dataclass(frozen=True)
class TraceArrivals:
    """Scripted arrivals at explicit virtual times."""

    times: tuple[float, ...]


@dataclass
class TenantSpec:
    name: str
    queries: list
    arrival: object
    priority: float = 0.0
    deadline: float | None = None
    options: "QueryOptions | None" = None


# -- report -----------------------------------------------------------------
#: The ``sharing.*`` counts a workload report carries.
SHARING_KEYS = (
    "cache_hits", "cache_misses", "carriers", "folds", "pages_saved", "unshared"
)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile on pre-sorted data (deterministic)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


@dataclass
class TenantStats:
    tenant: str
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    cancelled: int = 0
    failed: int = 0
    deadline_total: int = 0
    deadline_met: int = 0
    latencies: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    service_seconds: float = 0.0

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def p50_latency(self) -> float:
        return _percentile(sorted(self.latencies), 0.50)

    @property
    def p95_latency(self) -> float:
        return _percentile(sorted(self.latencies), 0.95)

    @property
    def p99_latency(self) -> float:
        return _percentile(sorted(self.latencies), 0.99)

    @property
    def mean_queue_wait(self) -> float:
        if not self.queue_waits:
            return 0.0
        return sum(self.queue_waits) / len(self.queue_waits)


@dataclass
class WorkloadReport:
    """Per-tenant latency/throughput/queue/fairness summary of one run."""

    horizon: float
    tenants: dict[str, TenantStats]
    fairness: float
    admission: dict
    arbiter: dict
    violations: list[str]
    #: Fleet/cost summary for the run window: membership churn counters,
    #: node-seconds billed, and dollars (node-seconds x rate, with the
    #: spot discount).  Empty dict for engines without membership churn
    #: history is still rendered — byte-identical per seed either way.
    cluster: dict = field(default_factory=dict)
    #: Sharing decisions of the run window (folds, cache hits/misses,
    #: pages saved, carriers, unshared) — empty when sharing is disabled.
    sharing: dict = field(default_factory=dict)
    #: Prediction decisions of the run window (runs recorded, predictions
    #: served, pre-grants, DRR placements, reprovisions, SLO rejections)
    #: — empty when prediction is disabled.
    predict: dict = field(default_factory=dict)

    def throughput(self, tenant: str) -> float:
        if self.horizon <= 0:
            return 0.0
        return self.tenants[tenant].completed / self.horizon

    @property
    def effective_qps(self) -> float:
        """Completed queries per virtual second across all tenants —
        the headline number query folding and the result cache raise."""
        if self.horizon <= 0:
            return 0.0
        return sum(s.completed for s in self.tenants.values()) / self.horizon

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "effective_qps": self.effective_qps,
            "fairness": self.fairness,
            "admission": dict(self.admission),
            "arbiter": dict(self.arbiter),
            "cluster": dict(self.cluster),
            "sharing": dict(self.sharing),
            "predict": dict(self.predict),
            "violations": list(self.violations),
            "tenants": {
                name: {
                    "submitted": s.submitted,
                    "completed": s.completed,
                    "rejected": s.rejected,
                    "cancelled": s.cancelled,
                    "failed": s.failed,
                    "mean_latency": s.mean_latency,
                    "p50_latency": s.p50_latency,
                    "p95_latency": s.p95_latency,
                    "p99_latency": s.p99_latency,
                    "mean_queue_wait": s.mean_queue_wait,
                    "throughput": self.throughput(name),
                    "deadline_met": s.deadline_met,
                    "deadline_total": s.deadline_total,
                    "service_seconds": s.service_seconds,
                }
                for name, s in sorted(self.tenants.items())
            },
        }

    def render(self) -> str:
        from ..obs.report import render_table

        rows = []
        for name in sorted(self.tenants):
            s = self.tenants[name]
            deadline = (
                f"{s.deadline_met}/{s.deadline_total}"
                if s.deadline_total else "-"
            )
            rows.append((
                name, s.submitted, s.completed, s.rejected + s.cancelled,
                f"{s.mean_queue_wait:.3f}", f"{s.mean_latency:.3f}",
                f"{s.p95_latency:.3f}", f"{self.throughput(name):.4f}",
                deadline,
            ))
        table = render_table(
            ["tenant", "sub", "done", "rej", "queue_s", "lat_s",
             "p95_s", "qps", "deadline"],
            rows,
        )
        lines = [
            table,
            f"horizon: {self.horizon:.3f} virtual seconds",
            f"fairness (Jain, service time): {self.fairness:.4f}",
            f"admission: admitted={self.admission.get('admitted', 0)} "
            f"rejected={self.admission.get('rejected', 0)} "
            f"max_queue_depth={self.admission.get('max_queue_depth', 0)} "
            f"violations={len(self.violations)}",
            f"arbiter: grants={self.arbiter.get('grants', 0)} "
            f"trims={self.arbiter.get('trims', 0)} "
            f"deferrals={self.arbiter.get('deferrals', 0)} "
            f"revocations={self.arbiter.get('revocations', 0)}",
        ]
        if self.cluster:
            c = self.cluster
            lines.append(
                f"cluster: nodes={c.get('nodes_final', 0)} "
                f"(peak {c.get('nodes_peak', 0)}) "
                f"joins={c.get('joins', 0)} "
                f"drains={c.get('drains_clean', 0)}+"
                f"{c.get('drains_escalated', 0)}esc "
                f"preemptions={c.get('preemptions', 0)} "
                f"node_seconds={c.get('node_seconds', 0.0):.3f} "
                f"cost=${c.get('cost_dollars', 0.0):.3f}"
            )
        if self.sharing:
            s = self.sharing
            lines.append(
                f"sharing: folds={s.get('folds', 0)} "
                f"cache_hits={s.get('cache_hits', 0)} "
                f"cache_misses={s.get('cache_misses', 0)} "
                f"pages_saved={s.get('pages_saved', 0)} "
                f"carriers={s.get('carriers', 0)} "
                f"effective_qps={self.effective_qps:.4f}"
            )
        if self.predict:
            d = self.predict
            lines.append(
                f"predict: recorded={d.get('recorded', 0)} "
                f"served={d.get('predictions', 0)} "
                f"pregrants={d.get('pregrants', 0)} "
                f"drr={d.get('drr_placements', 0)} "
                f"reprovisions={d.get('reprovisions', 0)} "
                f"slo_rejections={d.get('slo_rejections', 0)}"
            )
        return "\n".join(lines)


# -- the runner -------------------------------------------------------------
class Workload:
    """Drive a multi-tenant query mix against one engine.

    >>> workload = Workload(engine, seed=7)
    >>> workload.add_tenant("etl", [q1], PoissonArrivals(rate=0.5, count=10))
    >>> workload.add_tenant("bi", [q3, q5], ClosedLoop(count=5), priority=1)
    >>> report = workload.run()
    """

    def __init__(self, engine: "AccordionEngine", seed: int = 0):
        self.engine = engine
        self.kernel = engine.kernel
        self.seed = seed
        self.specs: list[TenantSpec] = []
        self.handles: list["QueryHandle"] = []
        self._expected = 0
        self._submitted = 0
        self._done = 0

    def add_tenant(
        self,
        name: str,
        queries: list,
        arrival,
        priority: float = 0.0,
        deadline: float | None = None,
        options: "QueryOptions | None" = None,
    ) -> None:
        """Register a tenant: a query mix (cycled round-robin), an arrival
        process, and admission/arbitration attributes."""
        self.specs.append(
            TenantSpec(name, list(queries), arrival, priority, deadline, options)
        )

    # ------------------------------------------------------------------
    def run(self, max_virtual_seconds: float = 1e6) -> WorkloadReport:
        """Run every tenant to completion (or the horizon) and report.

        Deterministic: with the same engine config, seed, and tenant
        specs, two runs produce byte-identical ``render()`` output."""
        start = self.kernel.now
        manager = self.engine.workload
        first = len(self.handles)
        #: Every count in the report is taken from this log mark on.
        mark = self.engine.decisions.mark()
        for index, spec in enumerate(self.specs):
            session = manager.session(
                spec.name, priority=spec.priority, deadline=spec.deadline
            )
            self._launch(spec, session, index)
        deadline = start + max_virtual_seconds
        self.kernel.run(
            until=deadline,
            stop_when=lambda: (
                self._submitted >= self._expected and self._done >= self._expected
            ),
        )
        horizon = self.kernel.now - start
        if manager.autoscaler is not None:
            # Let the fleet settle (idle elastic capacity drains away) so
            # the report's node-seconds/cost cover the whole provisioned
            # window, not a snapshot taken mid-drain.  The makespan above
            # deliberately excludes this billing tail: queries are done.
            self.kernel.run(
                until=deadline, stop_when=lambda: manager.autoscaler.settled
            )
        return self._report(self.handles[first:], horizon, manager, start, mark)

    # ------------------------------------------------------------------
    def _launch(self, spec: TenantSpec, session, index: int) -> None:
        arrival = spec.arrival
        if isinstance(arrival, ClosedLoop):
            self._expected += arrival.count
            if arrival.count > 0:
                self.kernel.schedule_at(
                    self.kernel.now + max(0.0, arrival.start),
                    lambda: self._closed_loop_next(spec, session, 0),
                )
        elif isinstance(arrival, PoissonArrivals):
            self._expected += arrival.count
            rng = random.Random(self.seed * 1_000_003 + index)
            t = self.kernel.now + arrival.start
            for i in range(arrival.count):
                t += rng.expovariate(arrival.rate)
                self.kernel.schedule_at(
                    t, lambda s=spec, sess=session, i=i: self._submit(s, sess, i)
                )
        elif isinstance(arrival, TraceArrivals):
            self._expected += len(arrival.times)
            for i, t in enumerate(arrival.times):
                self.kernel.schedule_at(
                    self.kernel.now + t,
                    lambda s=spec, sess=session, i=i: self._submit(s, sess, i),
                )
        else:
            raise TypeError(f"unknown arrival process: {arrival!r}")

    def _closed_loop_next(self, spec: TenantSpec, session, issued: int) -> None:
        arrival: ClosedLoop = spec.arrival
        if issued >= arrival.count:
            return
        handle = self._submit(spec, session, issued)
        if issued + 1 < arrival.count:
            handle.on_done(
                lambda _h: self.kernel.schedule(
                    arrival.think_time,
                    lambda: self._closed_loop_next(spec, session, issued + 1),
                )
            )

    def _submit(self, spec: TenantSpec, session, index: int) -> "QueryHandle":
        item = spec.queries[index % len(spec.queries)]
        if isinstance(item, tuple):
            sql, options = item
        else:
            sql, options = item, spec.options
        handle = session.submit(sql, options=options)
        self._submitted += 1
        self.handles.append(handle)
        handle.on_done(self._one_done)
        return handle

    def _one_done(self, _handle) -> None:
        self._done += 1

    # ------------------------------------------------------------------
    def _report(
        self, handles: list["QueryHandle"], horizon: float,
        manager, start: float, mark: int,
    ) -> WorkloadReport:
        tenants: dict[str, TenantStats] = {}
        for spec in self.specs:
            tenants.setdefault(spec.name, TenantStats(tenant=spec.name))
        for record in handles:
            stats = tenants.setdefault(
                record.tenant, TenantStats(tenant=record.tenant)
            )
            stats.submitted += 1
            if record.state == "finished":
                stats.completed += 1
                stats.latencies.append(record.latency)
                if record.queue_seconds is not None:
                    stats.queue_waits.append(record.queue_seconds)
                if record.admitted_at is not None:
                    stats.service_seconds += record.finished_at - record.admitted_at
            elif record.state == "rejected":
                stats.rejected += 1
            elif record.state == "cancelled":
                stats.cancelled += 1
            elif record.state == "failed":
                stats.failed += 1
            if record.deadline_at is not None:
                stats.deadline_total += 1
                if record.deadline_met:
                    stats.deadline_met += 1
        fairness = jain_fairness(
            [tenants[name].service_seconds for name in sorted(tenants)]
        )
        engine = self.engine
        membership = engine.membership
        fleet = membership.gauges(mark)
        cluster = {
            "joins": fleet["joins"],
            "drains_clean": fleet["drains_clean"],
            "drains_escalated": fleet["drains_escalated"],
            "preemptions": fleet["preemptions"],
            "nodes_final": fleet["nodes_schedulable"],
            "nodes_peak": fleet["nodes_peak"],
            "node_seconds": membership.node_seconds(start),
            "cost_dollars": membership.cost_between(start),
        }
        sharing, predict = {}, {}
        if engine.sharing is not None:
            counts = engine.sharing.gauges(mark)
            sharing = {k: counts[k] for k in SHARING_KEYS}
        if engine.predict_service is not None:
            predict = dict(sorted(engine.predict_service.gauges(mark).items()))
        return WorkloadReport(
            horizon=horizon,
            tenants=tenants,
            fairness=fairness,
            admission=manager.admission.gauges(mark),
            arbiter=manager.arbiter.gauges(mark),
            violations=list(manager.admission.violations),
            cluster=cluster,
            sharing=sharing,
            predict=predict,
        )
