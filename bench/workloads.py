"""The six benchmark workloads (imports top-level ``repro`` only).

Load shape, all workloads: closed loop, one client, one generator
process.  A *round* is the workload's template list executed once in
seeded-shuffled order, each query on a fresh ``AccordionEngine`` over a
shared ``Catalog`` (``multi_tenant_adhoc`` keeps one long-lived engine
and a round is one ``Workload.run()`` window).  One sample = one round,
so mixed-cost templates never make a bimodal sample set.

Every workload follows the same three-step protocol so that only library
work is inside the timer::

    plan = workload.plan_round(round_seed, variant)   # untimed
    done = workload.run_round(plan, rec)              # timed
    stats = workload.account(done)                    # untimed: checks + counters

``variant`` selects the engine's observability config for the traced
pass: ``plain`` (as the workload defines it), ``profiled`` (operator
profiler on, tracer off), ``traced`` (the engine's own tracer on) and,
for ``offload_2w`` only, ``serial`` (its bypass: no worker pool).
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from spans import Recorder

from repro import (
    AccordionEngine,
    Catalog,
    CostModel,
    DopPlanner,
    EngineConfig,
    PoissonArrivals,
    QueryOptions,
    TPCH_QUERIES,
    TuningRejected,
    Workload,
)

#: The dataset seed is pinned; ``--seed`` drives shuffles, literals,
#: tuning schedules and arrival gaps only.
DATASET_SEED = 20250622
#: Scale factor of every workload under ``--quick``.
QUICK_SCALE = 0.005
#: Scale factor at which templates are checked against the oracle.
ORACLE_SCALE = 0.01
MAX_VIRTUAL_SECONDS = 1e6

#: Additive engine counters read from the public ``engine.metrics``
#: registry (totals for a fresh engine, deltas for a long-lived one).
ENGINE_COUNTERS = (
    "rpc.total_requests",
    "rpc.retried_requests",
    "sim.events_processed",
    "plan_cache.hits",
    "plan_cache.misses",
    "parallel.jobs",
    "parallel.bytes_out",
    "parallel.bytes_in",
    "parallel.exec_ms",
    "parallel.wait_ms",
    "parallel.retries",
    "parallel.crashes",
    "sharing.folds",
    "sharing.cache_hits",
    "predict.pregrants",
    "arbiter.grants",
    "arbiter.trims",
    "arbiter.deferrals",
)


# -- answers ----------------------------------------------------------------
def _cell_key(cell):
    if isinstance(cell, float):
        return (0, "nan") if math.isnan(cell) else (0, f"{cell:.6e}")
    return (1, str(cell))


def _cells_match(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def rows_match(left, right) -> bool:
    """Order-insensitive row equality; floats to 1e-9.

    Spill, offload and mid-flight DOP changes re-associate float sums, so
    the last ulps may differ between configurations; integers and strings
    must match exactly.
    """
    if left is None or right is None or len(left) != len(right):
        return False
    order = lambda row: tuple(_cell_key(c) for c in row)  # noqa: E731
    for row_a, row_b in zip(sorted(left, key=order), sorted(right, key=order)):
        if len(row_a) != len(row_b):
            return False
        if not all(_cells_match(a, b) for a, b in zip(row_a, row_b)):
            return False
    return True


# -- per-round records --------------------------------------------------------
@dataclass
class Exec:
    """One user-visible query execution, kept until the round's timer stops."""

    label: str
    sql: str
    engine: object
    handle: object = None
    rows: list | None = None
    error: str | None = None
    #: Gathered while driving: tuning outcomes, and ``deadline`` (virtual
    #: seconds from submission) where the query has one.
    notes: dict = field(default_factory=dict)


@dataclass
class RoundStats:
    """What one round contributes to the ledger (all fields additive
    except ``peak_tracked_bytes``, which is a maximum)."""

    queries: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    texts: list = field(default_factory=list)
    virtual_latency: float = 0.0
    virtual_core_seconds: float = 0.0
    deadline_total: int = 0
    deadline_missed: int = 0
    counters: dict = field(default_factory=dict)
    op_seconds: dict = field(default_factory=dict)
    peak_tracked_bytes: int = 0
    samples: dict = field(default_factory=dict)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def merge(self, other: "RoundStats") -> None:
        self.queries += other.queries
        self.failed += other.failed
        self.failures.extend(other.failures)
        self.texts.extend(other.texts)
        self.virtual_latency += other.virtual_latency
        self.virtual_core_seconds += other.virtual_core_seconds
        self.deadline_total += other.deadline_total
        self.deadline_missed += other.deadline_missed
        for name, amount in other.counters.items():
            self.count(name, amount)
        for name, seconds in other.op_seconds.items():
            self.op_seconds[name] = self.op_seconds.get(name, 0.0) + seconds
        self.peak_tracked_bytes = max(
            self.peak_tracked_bytes, other.peak_tracked_bytes
        )
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)


def _apply_variant(config: EngineConfig, variant: str) -> EngineConfig:
    if variant == "profiled":
        return config.with_tracing(enabled=False, profiling=True)
    if variant == "traced":
        return config.with_tracing()
    if variant == "serial":
        return config.with_parallelism(workers=0)
    return config


def _engine_counters(engine, before: dict | None = None) -> dict:
    snapshot = engine.metrics.snapshot()
    out = {}
    for name in ENGINE_COUNTERS:
        value = snapshot.get(name, 0)
        if before is not None:
            value -= before.get(name, 0)
        if value:
            out[name] = value
    return out


def _operator_seconds(engine) -> dict:
    profiler = engine.tracer.profiler
    return {} if profiler is None else profiler.report().by_operator()


# -- base ---------------------------------------------------------------------
_NO_SPANS = Recorder(enabled=False)


class BenchWorkload:
    """Template-list workload: each query on a fresh engine."""

    name = ""
    why = ""
    scale = ORACLE_SCALE
    #: Host seconds one round took when the workload was sized (2-core
    #: reference host); ``--seconds`` divided by this is the round count.
    nominal_round_s = 0.5
    #: TPC-H query names; a template's label is its query name.
    queries: tuple[str, ...] = ()
    #: Check every execution against a default-config engine's answer too.
    check_plain = False

    def __init__(self, quick: bool, scratch: Path):
        self.quick = quick
        self.scale = QUICK_SCALE if quick else type(self).scale
        self.scratch = scratch
        self.catalog: Catalog | None = None
        #: sql -> rows of its first execution under the workload's config.
        self.expected: dict[str, list] = {}
        #: sql -> rows from a default-config engine (``check_plain``).
        self.plain: dict[str, list] = {}

    # -- definition ---------------------------------------------------------
    def templates(self) -> list[tuple[str, str]]:
        return [(name, TPCH_QUERIES[name]) for name in self.queries]

    def oracle_texts(self, seed: int) -> list[str]:
        """Every text (with literal variants) to check against the oracle."""
        return [sql for _, sql in self.templates()]

    def config(self, label: str) -> EngineConfig:
        return EngineConfig()

    def options(self, record: "Exec", rng) -> QueryOptions | None:
        """Per-query options; ``rng`` is None outside measured rounds."""
        return None

    def variants(self) -> tuple[str, ...]:
        return ("plain", "profiled", "traced")

    # -- setup ----------------------------------------------------------------
    def setup(self, variants: tuple[str, ...] = ("plain",)) -> None:
        """Catalog load from the warm dataset cache, engine/pool
        construction, and one cold execution of each template."""
        self.catalog = Catalog.tpch(self.scale, DATASET_SEED)
        self.prepare()
        for label, sql in self.templates():
            if self.check_plain:
                engine = AccordionEngine(self.catalog)
                handle = engine.submit(
                    sql, self.options(Exec(label, sql, engine), None)
                )
                self.plain[sql] = handle.result(MAX_VIRTUAL_SECONDS).rows
                self.after_plain(label, handle)
            cold = self.run_query(_NO_SPANS, label, sql, "plain")
            if cold.error is not None:
                raise RuntimeError(f"{self.name}: cold run failed: {cold.error}")
            self.expected[sql] = cold.rows
            self.after_cold(label, cold.handle)

    def prepare(self) -> None:
        """Workload-specific setup after the catalog is loaded."""

    def after_plain(self, label: str, handle) -> None:
        """Sees each template's default-config execution (``check_plain``)."""

    def after_cold(self, label: str, handle) -> None:
        """Sees each template's first execution under the workload's config."""

    def close(self) -> None:
        """Release whatever ``setup`` acquired."""

    # -- one query ------------------------------------------------------------
    def drive(self, record: "Exec", rng) -> None:
        """Advance the simulation until ``record.handle`` is terminal."""
        record.handle.wait()

    def run_query(self, rec, label, sql, variant, rng=None) -> "Exec":
        engine = AccordionEngine(
            self.catalog, config=_apply_variant(self.config(label), variant)
        )
        record = Exec(label, sql, engine)
        with rec.span("query", query=label):
            # The benchmark must outlive a failing query to count it.
            try:
                options = self.options(record, rng)
                with rec.span("cluster.submit"):
                    record.handle = engine.submit(sql, options)
                with rec.span("engine.run"):
                    self.drive(record, rng)
                with rec.span("engine.materialize"):
                    record.rows = record.handle.result(MAX_VIRTUAL_SECONDS).rows
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                record.error = f"{label}: {type(exc).__name__}: {exc}"
        return record

    # -- one round ------------------------------------------------------------
    def plan_round(self, round_seed: int, variant: str):
        rng = random.Random(round_seed)
        order = self.templates()
        rng.shuffle(order)
        return order, variant, rng

    def run_round(self, plan, rec) -> list["Exec"]:
        order, variant, rng = plan
        return [
            self.run_query(rec, label, sql, variant, rng) for label, sql in order
        ]

    def account(self, done: list["Exec"]) -> RoundStats:
        stats = RoundStats()
        for record in done:
            stats.queries += 1
            stats.texts.append(record.sql)
            self.verify(record, stats)
            if record.handle is None:
                continue
            elapsed = record.handle.elapsed
            stats.virtual_latency += elapsed
            deadline = record.notes.get("deadline")
            if deadline is not None:
                stats.deadline_total += 1
                stats.deadline_missed += record.error is not None or elapsed > deadline
            self.account_engine(record.engine, stats)
            self.account_exec(record, stats)
        return stats

    def verify(self, record: "Exec", stats: RoundStats) -> None:
        problem = record.error
        if problem is None and not rows_match(
            record.rows, self.expected.setdefault(record.sql, record.rows)
        ):
            problem = f"{record.label}: rows differ from the first execution"
        if problem is None and record.sql in self.plain and not rows_match(
            record.rows, self.plain[record.sql]
        ):
            problem = f"{record.label}: rows differ from the plain engine"
        if problem is not None:
            stats.failed += 1
            stats.failures.append(problem)

    def account_engine(self, engine, stats: RoundStats) -> None:
        for name, value in _engine_counters(engine).items():
            stats.count(name, value)
        for query in engine.coordinator.queries.values():
            self.account_physical(query, stats)
        for name, seconds in _operator_seconds(engine).items():
            stats.op_seconds[name] = stats.op_seconds.get(name, 0.0) + seconds

    def account_physical(self, query, stats: RoundStats) -> None:
        stats.virtual_core_seconds += sum(
            stage.cpu_seconds() for stage in query.stages.values()
        )
        memory = query.memory.stats()
        stats.peak_tracked_bytes = max(
            stats.peak_tracked_bytes, memory["peak_bytes"]
        )
        stats.count("spill.spills", memory["spills"])
        stats.count("spill.spilled_bytes", memory["spilled_bytes"])

    def account_exec(self, record: "Exec", stats: RoundStats) -> None:
        """Workload-specific per-query counters."""


# -- the five single-query workloads -----------------------------------------
class ScanAgg(BenchWorkload):
    name = "scan_agg"
    nominal_round_s = 0.47
    why = (
        "Q1+Q6 at SF0.2: filter/project/partial-agg kernels, compiled "
        "expressions and pages do the work; joins, shuffle and sim dispatch "
        "do little (plan-cache hit path)"
    )
    scale = 0.2
    queries = ("Q1", "Q6")


class JoinShuffle(BenchWorkload):
    name = "join_shuffle"
    nominal_round_s = 0.5
    why = (
        "Q5+Q9+Q18 at SF0.05: join build/probe, shuffle buffers, exchange "
        "and final aggregation dominate; bypass for spill and offload"
    )
    scale = 0.05
    queries = ("Q5", "Q9", "Q18")


class SpillBudgeted(BenchWorkload):
    name = "spill_budgeted"
    nominal_round_s = 0.52
    why = (
        "Q3+Q5+Q18 at SF0.02 under 20% of each template's unbudgeted peak "
        "memory: join/agg take their Grace spill path through exec.spill"
    )
    scale = 0.02
    queries = ("Q3", "Q5", "Q18")
    check_plain = True
    BUDGET_FRACTION = 0.2

    def prepare(self) -> None:
        self.spill_dir = Path(tempfile.mkdtemp(prefix="spill-", dir=self.scratch))
        self.unbudgeted_peak: dict[str, int] = {}

    def after_plain(self, label: str, handle) -> None:
        # Deterministic: tracked bytes follow the data, not the host.
        self.unbudgeted_peak[label] = handle.execution.memory.peak_bytes

    def config(self, label: str) -> EngineConfig:
        budget = int(self.BUDGET_FRACTION * self.unbudgeted_peak[label])
        return EngineConfig().with_memory(
            query_budget_bytes=budget, spill_dir=str(self.spill_dir)
        )

    def account_exec(self, record: Exec, stats: RoundStats) -> None:
        peak = record.handle.execution.memory.peak_bytes
        stats.sample(
            "spill.peak_ratio", peak / max(self.unbudgeted_peak[record.label], 1)
        )

    def close(self) -> None:
        leftovers = [path.name for path in self.spill_dir.iterdir()]
        shutil.rmtree(self.spill_dir)
        if leftovers:
            raise RuntimeError(f"spill files survived their queries: {leftovers}")


class Offload2w(BenchWorkload):
    name = "offload_2w"
    # Sized below its ~0.7 s round on purpose: a one-query round on three
    # processes is the noisiest sample here, so it gets more of them.
    nominal_round_s = 0.6
    why = (
        "Q18 at SF0.05 on a 2-worker pool: filter/project/probe/"
        "grouped_reduce jobs over the shm+pipe path; join_shuffle is its "
        "serial bypass"
    )
    scale = 0.05
    queries = ("Q18",)
    check_plain = True
    #: Fixed, not derived from nproc.
    WORKERS = 2

    def config(self, label: str) -> EngineConfig:
        return EngineConfig().with_parallelism(workers=self.WORKERS)

    def variants(self) -> tuple[str, ...]:
        return ("plain", "profiled", "traced", "serial")


class ElasticTuned(BenchWorkload):
    name = "elastic_tuned"
    # Sized below its ~0.45 s round on purpose: thousands of small events
    # make it the single-process workload the host disturbs most, so it
    # gets more rounds (30 at 12 s) than the others (21-27).
    nominal_round_s = 0.4
    why = (
        "Q3 under a scripted AC->AP schedule, Q2J under RP->AP group "
        "switching, Q5 under DopPlanner deadlines + monitor at SF0.01 with "
        "1000x costs and 256-row pages: the paper's elasticity path"
    )
    scale = 0.01
    queries = ("Q3", "Q2J", "Q5")
    check_plain = True

    def prepare(self) -> None:
        #: Untuned virtual runtime per template: the schedules act at
        #: seeded fractions of it, so they land on running tasks.
        self.untuned: dict[str, float] = {}

    def after_cold(self, label: str, handle) -> None:
        self.untuned[label] = handle.elapsed

    def config(self, label: str) -> EngineConfig:
        return EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)

    def options(self, record: Exec, rng) -> QueryOptions | None:
        if record.label == "Q2J":
            return QueryOptions(join_distribution="partitioned", initial_stage_dop=4)
        if record.label != "Q5" or rng is None:
            return None
        # The DOP planning module turns a query deadline into initial
        # DOPs and per-scan constraints (Section 6.5.2).
        engine = record.engine
        deadline = self.untuned["Q5"] * rng.uniform(1.5, 3.0)
        plan = engine.coordinator.plan_sql(record.sql, QueryOptions())
        dop_plan = DopPlanner(self.catalog, engine.config).plan(plan, deadline)
        record.notes.update(deadline=deadline, dop_plan=dop_plan)
        return QueryOptions(
            initial_stage_dop=max(2, dop_plan.initial_stage_dop),
            initial_task_dop=dop_plan.initial_task_dop,
        )

    def drive(self, record: Exec, rng) -> None:
        handle, engine, notes = record.handle, record.engine, record.notes
        if rng is None:  # cold execution in setup: untuned
            handle.wait()
            return
        tuning = handle.tuning
        base = self.untuned[record.label]
        notes["requests"] = notes["rejected"] = 0

        def request_at(fraction: float, kind: str, stage: int, target: int):
            engine.run_until(base * fraction)
            if handle.finished:
                return
            notes["requests"] += 1
            try:
                getattr(tuning, kind)(stage, target)
            except TuningRejected:
                notes["rejected"] += 1

        if record.label == "Q3":
            stage = rng.choice([unit.knob_stage for unit in tuning.units()])
            request_at(rng.uniform(0.05, 0.15), "ac", stage, rng.randint(2, 4))
            request_at(rng.uniform(0.2, 0.4), "ap", stage, rng.randint(2, 4))
        elif record.label == "Q2J":
            # The Fig. 26 switch: shrink the partitioned join, then grow it.
            request_at(rng.uniform(0.08, 0.15), "rp", 1, 2)
            request_at(rng.uniform(0.4, 0.55), "ap", 1, rng.choice((4, 6)))
        else:
            for stage, seconds in notes["dop_plan"].scan_deadlines.items():
                tuning.set_constraint(stage, seconds)
            tuning.start_monitor(period=2.0)
        handle.wait()

    def account_exec(self, record: Exec, stats: RoundStats) -> None:
        stats.count("elastic.requests", record.notes.get("requests", 0))
        stats.count("elastic.rejected", record.notes.get("rejected", 0))
        if record.label == "Q5":
            stats.count("autotune.actions", len(record.handle.tuning.tuner.applied))
        if record.label == "Q2J":
            tracker = record.handle.tracker
            tunings = tracker.markers_of("tuning")
            ready = tracker.markers_of("build_ready")
            if tunings and ready and ready[-1].time >= tunings[-1].time:
                stats.sample(
                    "elastic.switch_virtual_s", ready[-1].time - tunings[-1].time
                )


# -- multi-tenant ---------------------------------------------------------------
def _q1_variant(sql, rng):
    return sql.replace("'90' day", f"'{rng.randint(30, 120)}' day").replace(
        "1998-12-01", f"1998-{rng.randint(9, 12):02d}-{rng.randint(1, 28):02d}"
    )


def _date_variant(old: str, years=(1993, 1997)):
    def variant(sql, rng):
        new = (
            f"{rng.randint(*years)}-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}"
        )
        return sql.replace(old, new)

    return variant


def _q6_variant(sql, rng):
    sql = _date_variant("1994-01-01")(sql, rng)
    return sql.replace("l_quantity < 24", f"l_quantity < {rng.randint(20, 30)}")


#: template -> function(sql, rng) returning the text with a fresh literal.
LITERAL_VARIANTS = {
    "Q1": _q1_variant,
    "Q3": _date_variant("1995-03-15", years=(1994, 1996)),
    "Q5": _date_variant("1994-01-01"),
    "Q6": _q6_variant,
    "Q12": _date_variant("1994-01-01"),
    "Q14": _date_variant("1995-09-01", years=(1993, 1997)),
}


class MultiTenantAdhoc(BenchWorkload):
    name = "multi_tenant_adhoc"
    # Sized below its ~0.85 s window on purpose: windows differ in content,
    # so the median needs more of them.
    nominal_round_s = 0.6
    why = (
        "3 tenants x 8 Poisson arrivals per window on one long-lived engine: "
        "admission, deadline arbitration, folding, result cache, prediction; "
        "half the texts carry a fresh literal: the control-plane guard"
    )
    scale = 0.01
    queries = tuple(LITERAL_VARIANTS)
    TENANTS = 3
    QUERIES_PER_TENANT = 8
    ARRIVAL_RATE = 2.0
    DEADLINE = 20.0
    #: Below one window's horizon (~5 virtual s), so later rounds do not
    #: degenerate into result-cache hits.
    CACHE_TTL = 2.0

    def config(self, label: str = "") -> EngineConfig:
        return (
            EngineConfig(cost=CostModel().scaled(20.0))
            .with_workload(max_concurrent_queries=4, arbitration="deadline")
            .with_sharing(fold_window=0.05, cache_ttl=self.CACHE_TTL)
            .with_prediction()
        )

    def oracle_texts(self, seed: int) -> list[str]:
        rng = random.Random(seed)
        texts = []
        for name, sql in self.templates():
            texts.append(sql)
            texts.extend(LITERAL_VARIANTS[name](sql, rng) for _ in range(2))
        return texts

    def setup(self, variants: tuple[str, ...] = ("plain",)) -> None:
        self.catalog = Catalog.tpch(self.scale, DATASET_SEED)
        self.engines = {
            variant: AccordionEngine(
                self.catalog, config=_apply_variant(self.config(), variant)
            )
            for variant in variants
        }
        #: Physical executions already accounted, per engine.
        self._seen = {variant: 0 for variant in variants}
        self._op_seconds = {variant: {} for variant in variants}
        for label, sql in self.templates():
            for engine in self.engines.values():
                rows = engine.execute(
                    sql, max_virtual_seconds=MAX_VIRTUAL_SECONDS
                ).rows
                self.expected.setdefault(sql, rows)

    def round_texts(self, rng) -> list[list[str]]:
        """Every template four times per window, two of them with a fresh
        literal, dealt to the tenants in seeded order."""
        total = self.TENANTS * self.QUERIES_PER_TENANT
        texts = []
        templates = self.templates()
        for index in range(total):
            name, sql = templates[index % len(templates)]
            fresh = (index // len(templates)) % 2 == 1
            texts.append(LITERAL_VARIANTS[name](sql, rng) if fresh else sql)
        rng.shuffle(texts)
        size = self.QUERIES_PER_TENANT
        return [texts[i * size:(i + 1) * size] for i in range(self.TENANTS)]

    def plan_round(self, round_seed: int, variant: str):
        rng = random.Random(round_seed)
        engine = self.engines[variant]
        workload = Workload(engine, seed=round_seed)
        for tenant, texts in enumerate(self.round_texts(rng)):
            workload.add_tenant(
                f"tenant{tenant}",
                texts,
                PoissonArrivals(
                    rate=self.ARRIVAL_RATE, count=self.QUERIES_PER_TENANT
                ),
                deadline=self.DEADLINE,
            )
        return workload, variant, engine.metrics.snapshot(), rng

    def run_round(self, plan, rec):
        workload, variant, before, rng = plan
        results = []
        with rec.span("window"):
            with rec.span("engine.run"):
                report = workload.run(MAX_VIRTUAL_SECONDS)
            with rec.span("engine.materialize"):
                for handle in workload.handles:
                    record = Exec("adhoc", handle.sql, workload.engine, handle)
                    try:
                        record.rows = handle.result(MAX_VIRTUAL_SECONDS).rows
                    except Exception as exc:  # noqa: BLE001 - counted
                        record.error = f"adhoc: {type(exc).__name__}: {exc}"
                    results.append(record)
        return results, report, variant, before, rng

    def account(self, done) -> RoundStats:
        results, report, variant, before, rng = done
        engine = self.engines[variant]
        stats = RoundStats()
        fresh = []
        for record in results:
            stats.queries += 1
            stats.texts.append(record.sql)
            if record.sql not in self.expected:
                fresh.append(record)
            self.verify(record, stats)
        if fresh:
            # A fresh-literal text has no earlier answer to compare with:
            # one per window is re-run on a plain engine instead.
            sample = rng.choice(fresh)
            plain = AccordionEngine(self.catalog).execute(sample.sql).rows
            if sample.error is None and not rows_match(sample.rows, plain):
                stats.failed += 1
                stats.failures.append("adhoc: rows differ from the plain engine")
        for tenant in report.tenants.values():
            stats.virtual_latency += sum(tenant.latencies)
            stats.count("workload.queue_wait_virtual_s", sum(tenant.queue_waits))
            stats.deadline_total += tenant.deadline_total
            stats.deadline_missed += tenant.deadline_total - tenant.deadline_met
        for name, value in _engine_counters(engine, before).items():
            stats.count(name, value)
        physical = list(engine.coordinator.queries.values())
        for query in physical[self._seen[variant]:]:
            self.account_physical(query, stats)
            if query.prediction_error is not None:
                stats.sample("predict.rel_error", query.prediction_error)
        self._seen[variant] = len(physical)
        total = _operator_seconds(engine)
        previous = self._op_seconds[variant]
        stats.op_seconds = {
            name: seconds - previous.get(name, 0.0)
            for name, seconds in total.items()
        }
        self._op_seconds[variant] = total
        return stats


WORKLOADS = {
    cls.name: cls
    for cls in (
        ScanAgg,
        JoinShuffle,
        ElasticTuned,
        SpillBudgeted,
        Offload2w,
        MultiTenantAdhoc,
    )
}
