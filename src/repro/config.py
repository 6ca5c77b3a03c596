"""Engine, cluster, and cost-model configuration.

The simulated cluster mirrors the paper's testbed (Section 6.1): a
coordinator, storage nodes holding table splits, and compute nodes running
tasks.  All timing in the engine is *virtual* and driven by
:class:`CostModel`; the defaults are calibrated so that the evaluation
benchmarks reproduce the paper's qualitative shapes (who wins, speedup
factors, crossovers) at reduced scale factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar


@dataclass(frozen=True)
class CostModel:
    """Virtual-time cost coefficients for the simulated engine.

    All times are in virtual seconds.  Two coefficients are settable:
    ``cpu_multiplier`` lets baseline engine modes (Presto's Java
    operators vs. Accordion/Prestissimo's C++ vectorized operators) share
    one executor while exhibiting the paper's Figure 20 performance gap,
    and stretches virtual runtime for the calibrations; the shuffle
    experiment (Figures 27/28) sets ``shuffle_row_cost``.  Every other
    coefficient is a class constant: no workload varies it.
    """

    #: CPU seconds charged per row scanned from a CSV split (parse + copy).
    scan_row_cost: ClassVar[float] = 2.0e-7
    #: CPU seconds per row for stateless row transforms (filter/project).
    filter_row_cost: ClassVar[float] = 5.0e-8
    project_row_cost: ClassVar[float] = 1.5e-7
    #: CPU seconds per row on the build side of a hash join.
    join_build_row_cost: ClassVar[float] = 1.2e-6
    #: CPU seconds per probe-side row of a hash join.
    join_probe_row_cost: ClassVar[float] = 1.6e-6
    #: CPU seconds per row for partial (pre-)aggregation.
    partial_agg_row_cost: ClassVar[float] = 1.2e-6
    #: CPU seconds per row for final aggregation (merging partials).
    final_agg_row_cost: ClassVar[float] = 8.0e-7
    #: CPU seconds per row pushed through sort / topN operators.
    sort_row_cost: ClassVar[float] = 5.0e-7
    #: CPU seconds per row hashed + copied by a shuffle executor.
    shuffle_row_cost: float = 4.0e-7
    #: CPU seconds per row moved through local exchange sink/source.
    local_exchange_row_cost: ClassVar[float] = 3.0e-8
    #: CPU seconds per row delivered by the task output operator.
    task_output_row_cost: ClassVar[float] = 3.0e-8
    #: CPU seconds per row received by an exchange operator (deserialise).
    exchange_row_cost: ClassVar[float] = 1.2e-7
    #: Virtual seconds per byte written to a local spill file (sequential
    #: NVMe-class write).  Charged only when an operator actually spills,
    #: so budget-free runs keep bit-identical virtual timings.
    spill_write_byte_cost: ClassVar[float] = 5.0e-10
    #: Virtual seconds per byte read back from a spill file.
    spill_read_byte_cost: ClassVar[float] = 2.5e-10
    #: Fixed CPU seconds charged per driver quantum (scheduling overhead).
    quantum_overhead: ClassVar[float] = 1.0e-5
    #: One RESTful request between coordinator and workers (paper: 1-10 ms).
    rpc_request_cost: ClassVar[float] = 4.8e-3
    #: Fixed network latency per page transfer.
    network_latency: ClassVar[float] = 2.0e-4
    #: Multiplier applied to all CPU costs (baselines override this).
    cpu_multiplier: float = 1.0

    def __post_init__(self) -> None:
        """Each field is finite and >= 0, the multiplier > 0: a bad
        value fails here, naming its field, instead of as a negative core
        grant, a NaN clock or a quantum that never ends."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            positive = spec.name == "cpu_multiplier"
            if not math.isfinite(value) or value < 0 or (positive and value == 0):
                bound = "> 0" if positive else ">= 0"
                raise ValueError(
                    f"CostModel.{spec.name} must be finite and {bound}, got {value!r}"
                )

    def scaled(self, multiplier: float) -> "CostModel":
        """Return a copy with the CPU multiplier composed in.

        Multipliers stack: a Presto baseline (2.6x) built on an evaluation
        calibration (1000x) runs at 2600x.  The copy is validated like any
        other (a NaN or non-positive factor raises ``ValueError``).
        """
        return replace(self, cpu_multiplier=self.cpu_multiplier * multiplier)


@dataclass(frozen=True)
class BufferConfig:
    """Output/exchange buffer behaviour.

    ``elastic=True`` enables the paper's runtime elastic buffer
    (Section 4.2.2): capacity starts at one page and is resized by the
    consumer side every ``RESIZE_PERIOD`` virtual seconds
    (:mod:`repro.buffers.elastic`) to match the observed consumption
    rate.  ``elastic=False`` models Presto's fixed 32 MB task output
    buffers (Section 2, challenge 3).
    """

    elastic: bool = True
    #: Upper bound on elastic capacity, in pages, to keep memory bounded.
    max_capacity_pages: int = 4096
    #: Fixed capacity (bytes) used when ``elastic`` is False.
    fixed_capacity_bytes: int = 32 * 1024 * 1024


@dataclass(frozen=True)
class ClusterConfig:
    """Topology of the simulated cluster (paper Section 6.1).

    The paper uses 1 coordinator + 10 storage + 10 compute nodes.  Tests
    use smaller clusters; the engine takes the topology from here.  One
    ClusterConfig fully describes a deployment: split placement overrides
    and the combined storage/compute mode live here too, not as engine
    constructor arguments.
    """

    compute_nodes: int = 10
    storage_nodes: int = 10
    #: Run storage and compute on the same nodes (standalone deployments).
    combined: bool = False
    #: Optional per-table split counts, e.g. ``{"orders": 20}``.
    split_scheme: tuple[tuple[str, int], ...] | None = None
    #: Optional per-table placement, e.g. ``{"orders": [0, 1]}`` pinning a
    #: table's splits to specific storage nodes.
    node_overrides: tuple[tuple[str, tuple[int, ...]], ...] | None = None

    # -- membership / autoscaling (repro.cluster.membership) ----------------
    #: Enable the queue/deadline-driven autoscaler in the workload layer.
    autoscale: bool = False
    #: Autoscaler fleet ceiling; ``None`` means "no upper bound".  The
    #: floor is the configured ``compute_nodes``.
    autoscale_max_nodes: int | None = None
    #: Virtual seconds between two autoscaler actions (join or drain).
    autoscale_cooldown: float = 1.0
    #: Request spot (preemptible, cheaper) capacity when scaling out.
    autoscale_spot: bool = False

    def with_placement(
        self,
        split_scheme: dict | None = None,
        node_overrides: dict | None = None,
        combined: bool | None = None,
    ) -> "ClusterConfig":
        """Copy with placement settings, accepting plain dicts.

        The stored form is tuples (the dataclass is frozen/hashable); this
        helper does the dict -> tuple conversion so callers write
        ``cluster.with_placement(node_overrides={"orders": [0, 1]})``.
        """
        kwargs: dict = {}
        if split_scheme is not None:
            kwargs["split_scheme"] = tuple(sorted(split_scheme.items()))
        if node_overrides is not None:
            kwargs["node_overrides"] = tuple(
                (table, tuple(nodes)) for table, nodes in sorted(node_overrides.items())
            )
        if combined is not None:
            kwargs["combined"] = combined
        return replace(self, **kwargs)

    @property
    def split_scheme_dict(self) -> dict | None:
        return dict(self.split_scheme) if self.split_scheme is not None else None

    @property
    def node_overrides_dict(self) -> dict | None:
        if self.node_overrides is None:
            return None
        return {table: list(nodes) for table, nodes in self.node_overrides}

    def with_autoscaling(self, **kwargs) -> "ClusterConfig":
        """Copy with autoscaling enabled (plus any autoscaler fields).

        ``ClusterConfig(compute_nodes=2).with_autoscaling(
        autoscale_max_nodes=6)`` describes a fleet that starts at 2 nodes
        and may grow to 6 under queue or deadline pressure; it never
        drains below its configured ``compute_nodes``.
        """
        kwargs.setdefault("autoscale", True)
        return replace(self, **kwargs)


@dataclass(frozen=True)
class MemoryConfig:
    """Per-query memory budget and out-of-core (spill) behaviour.

    Memory is the engine's second elastic dimension (DESIGN.md §13),
    alongside the paper's DOP: when a query's tracked operator bytes
    exceed ``query_budget_bytes``, hash joins and final aggregations
    switch to a radix-partitioned Grace-style spill path
    (``repro.exec.spill``) instead of failing with an OOM.  ``None``
    budget means unlimited — the seed behaviour, and bit-identical to it.

    The budget set here is the *default*; the workload layer's
    :class:`ResourceArbiter` overrides it per query with the memory it
    actually grants (a trimmed grant triggers spilling, an enlarged one
    stops further spilling).
    """

    #: Bytes of operator state one query may hold before spilling.
    query_budget_bytes: int | None = None
    #: Directory for spill files.  ``None`` resolves to
    #: ``$REPRO_CACHE_DIR/spill`` when the cache dir env var is set, else
    #: a ``repro-spill`` directory under the system temp dir.  Each query
    #: gets its own subdirectory, removed when the query terminates
    #: (success, failure, or cancellation alike).
    spill_dir: str | None = None


@dataclass(frozen=True)
class SharingConfig:
    """Concurrent-query folding + result cache (``repro.sharing``).

    Off by default: with ``enabled=False`` every submission runs its own
    physical execution, bit-identical to earlier releases.  With sharing
    on, submissions are fingerprinted on their *normalized* logical plan
    (DESIGN.md §14): repeats of a cached answer short-circuit execution
    entirely, and concurrent compatible queries fold onto one carrier
    execution with per-consumer residual operators — answers stay
    bit-identical to isolated runs by construction.
    """

    enabled: bool = False
    #: Virtual seconds a *new* carrier waits before dispatching, so
    #: closely-spaced lookalike queries can pile onto it.  0 dispatches
    #: immediately (queries arriving at the same instant still fold).
    fold_window: float = 0.0
    #: Result-cache entry lifetime in virtual seconds; ``None`` means no
    #: TTL.  Entries are also invalidated whenever ``Catalog.register``
    #: bumps the catalog version, TTL or not.
    cache_ttl: float | None = None


@dataclass(frozen=True)
class ParallelConfig:
    """Worker-pool transport settings (``repro.parallel``).

    No engine component reads this: the per-kernel offload it used to
    switch on lost to serial on every workload and was deleted (DESIGN.md
    §15), so an engine starts no pool whatever ``workers`` says.  The
    class stays, with :meth:`EngineConfig.with_parallelism`, only because
    ``bench/`` constructs it; the ``benchmark`` PR of ROADMAP item 2
    removes both together with ``offload_2w``, ``probe.parallel.*`` and
    the two ``repro.parallel`` import lines.
    """

    #: Worker processes of the pool an :class:`OffloadClient` attaches to.
    workers: int = 0
    #: Crashed (not erroring) jobs are retried this many times on a
    #: respawned worker before :class:`WorkerCrashedError` surfaces.
    max_retries: int = 2


@dataclass(frozen=True)
class PredictionConfig:
    """Learned per-stage resource prediction (``repro.predict``).

    Off by default: the engine is purely reactive and bit-identical to
    earlier releases.  With ``enabled=True`` the engine keys every
    finished query's per-stage demand (CPU seconds, quanta, peak tracked
    memory, exchange bytes, stage time windows) under its query-*template*
    fingerprint (the plan's ``repro.tree.identity`` with literals
    parameterized out, ``literals=False``), and uses the
    accumulated history to (1) pre-grant stage DOPs and a memory budget
    at submission, (2) place tasks by dominant-remaining-resource
    scoring, and (3) estimate runtime with variance for SLO admission.
    Queries whose template has no history fall back to the reactive path
    unchanged (DESIGN.md §16).
    """

    enabled: bool = False
    #: Directory for persisted history (``history.json``); ``None`` keeps
    #: history in memory only (per engine).
    history_dir: str | None = None
    #: Reject at admission when P(deadline miss) from the runtime
    #: estimate + variance exceeds this; ``None`` disables SLO rejection.
    max_miss_probability: float | None = None


@dataclass(frozen=True)
class TraceConfig:
    """Observability switches (``repro.obs``).

    Tracing is **inert**: turning it on changes no virtual timing, answer,
    or fault schedule — it only records.  ``enabled`` gates span
    recording (every span kind, down to operator sub-spans and buffer
    instants); ``profiling`` independently turns on wall-clock
    attribution of real Python time to operators.
    """

    enabled: bool = False
    #: Attribute wall-clock (host) time to operators via perf_counter.
    profiling: bool = False


@dataclass(frozen=True)
class WorkloadConfig:
    """Multi-tenant workload behaviour (``repro.workload``).

    Controls the admission controller sitting in front of
    ``Session.submit`` and the cluster-wide :class:`ResourceArbiter` that
    turns per-query tuning requests into bids.  All times are virtual
    seconds.  ``None`` limits mean "unlimited".
    """

    #: Maximum queries running concurrently; further submissions queue.
    max_concurrent_queries: int | None = None
    #: Queue discipline: ``"fifo"`` or ``"priority"`` (with aging).
    queue_policy: str = "fifo"
    #: Virtual seconds a submission may wait before it is rejected with a
    #: :class:`QueryRejectedError`; ``None`` waits forever.
    queue_timeout: float | None = None
    #: Priority points gained per queued virtual second (prevents
    #: starvation under the priority policy; 0 disables aging).
    priority_aging_rate: float = 0.0
    #: Arbitration policy for tuning bids: ``"none"`` (first come, first
    #: served against free cores), ``"fair_share"`` (per-tenant core
    #: budget), or ``"deadline"`` (deadline-aware
    #: via the what-if service's T_remain, may revoke cores).
    arbitration: str = "fair_share"
    #: Dynamic concurrency cap: at most ``ceil(this * schedulable compute
    #: nodes)`` queries run at once, so admission tracks the live cluster
    #: size under autoscaling.  ``None`` disables the dynamic cap.
    max_queries_per_node: float | None = None


@dataclass(frozen=True)
class EngineConfig:
    """Top-level engine configuration and feature switches.

    ``EngineConfig`` is the root of the config hierarchy::

        EngineConfig
        ├── cluster:  ClusterConfig (topology, placement)
        ├── cost:     CostModel     (CPU multiplier, shuffle row cost)
        ├── buffers:  BufferConfig  (elastic output buffers)
        ├── memory:   MemoryConfig  (per-query budget + spilling)
        ├── tracing:  TraceConfig   (observability switches)
        ├── workload: WorkloadConfig (admission + arbitration)
        ├── sharing:  SharingConfig (query folding + result cache)
        ├── parallel: ParallelConfig (accepted, read by no component)
        └── prediction: PredictionConfig (learned demand profiles)

    Every node is a frozen dataclass.  Sections a workload tunes have an
    immutable ``with_<section>(**fields)`` builder on this root class;
    ``cost`` and ``buffers`` are replaced whole
    (``EngineConfig(cost=CostModel().scaled(1000.0))``).
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cost: CostModel = field(default_factory=CostModel)
    buffers: BufferConfig = field(default_factory=BufferConfig)
    #: Rows per page produced by scans and operators.
    page_row_limit: int = 4096
    #: Enable intra-query runtime elasticity (the paper's contribution).
    #: It includes intermediate data caching (Section 4.5): build-side
    #: pages stay cached so a DOP switch can rebuild hash tables.
    elasticity_enabled: bool = True
    #: Host-performance switch (DESIGN.md §10), **bit-inert**: answers,
    #: virtual timings and event counts are identical with it on or off —
    #: it exists for the identity test and for debugging, not for tuning.
    #: Memoize parse -> analyze -> optimize -> physical plan per
    #: (catalog version, SQL, options) across queries and engines.
    plan_cache: bool = True
    #: Per-query memory budget and out-of-core spilling (DESIGN.md §13).
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: Observability (tracing/profiling) switches; off by default.
    tracing: TraceConfig = field(default_factory=TraceConfig)
    #: Multi-tenant admission control and resource arbitration.
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Concurrent-query folding + shared result cache; off by default.
    sharing: SharingConfig = field(default_factory=SharingConfig)
    #: Accepted for ``bench/``; no engine component reads it.
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    #: Learned per-stage demand prediction; off by default.
    prediction: PredictionConfig = field(default_factory=PredictionConfig)

    def with_cluster(self, **kwargs) -> "EngineConfig":
        """Return a copy with cluster fields replaced (test convenience)."""
        return replace(self, cluster=replace(self.cluster, **kwargs))

    def with_tracing(self, **kwargs) -> "EngineConfig":
        """Return a copy with tracing enabled (plus any TraceConfig fields)."""
        kwargs.setdefault("enabled", True)
        return replace(self, tracing=replace(self.tracing, **kwargs))

    def with_workload(self, **kwargs) -> "EngineConfig":
        """Return a copy with workload fields replaced."""
        return replace(self, workload=replace(self.workload, **kwargs))

    def with_sharing(self, **kwargs) -> "EngineConfig":
        """Return a copy with sharing enabled (plus any SharingConfig
        fields).

        ``EngineConfig().with_sharing(fold_window=0.05, cache_ttl=60.0)``
        folds compatible concurrent queries onto shared executions and
        answers repeats from the result cache (``RESULT_CACHE_BYTES``,
        64 MB) with a 60-virtual-second TTL.
        """
        kwargs.setdefault("enabled", True)
        return replace(self, sharing=replace(self.sharing, **kwargs))

    def with_parallelism(self, workers: int = 4, **kwargs) -> "EngineConfig":
        """Return a copy with ``parallel.workers`` set.  Accepted and
        ignored: the engine runs every operator inline and starts no
        pool (see :class:`ParallelConfig`)."""
        kwargs["workers"] = workers
        return replace(self, parallel=replace(self.parallel, **kwargs))

    def with_prediction(self, **kwargs) -> "EngineConfig":
        """Return a copy with demand prediction enabled (plus any
        PredictionConfig fields).

        ``EngineConfig().with_prediction()`` records per-stage demand
        history under query-template fingerprints and uses it to
        pre-grant DOP/memory, place tasks by dominant-remaining-resource,
        and estimate runtimes with variance; the reprovision trigger
        escalates to the reactive tuner once a query runs
        ``ERROR_BOUND`` (50%) past its prediction (DESIGN.md §16).
        """
        kwargs.setdefault("enabled", True)
        return replace(self, prediction=replace(self.prediction, **kwargs))

    def with_memory(self, **kwargs) -> "EngineConfig":
        """Return a copy with memory-budget fields replaced.

        ``EngineConfig().with_memory(query_budget_bytes=64 << 20)`` caps
        every query at 64 MB of tracked operator state; joins and final
        aggregations past the cap spill to disk and finish partition-at-
        a-time with bounded peak memory.
        """
        return replace(self, memory=replace(self.memory, **kwargs))


def presto_config(base: EngineConfig | None = None) -> EngineConfig:
    """Baseline mode modelling Presto (Java row-at-a-time interpretation).

    Elasticity is disabled, task output buffers are fixed at 32 MB, and CPU
    costs carry the Java-vs-C++ multiplier observed in the paper's
    Figure 20 (Presto noticeably slower than Accordion/Prestissimo).
    """
    base = base or EngineConfig()
    return replace(
        base,
        cost=base.cost.scaled(2.6),
        buffers=replace(base.buffers, elastic=False),
        elasticity_enabled=False,
    )


def prestissimo_config(base: EngineConfig | None = None) -> EngineConfig:
    """Baseline mode modelling Prestissimo (C++ Velox operators, no IQRE)."""
    base = base or EngineConfig()
    return replace(
        base,
        cost=base.cost.scaled(0.95),
        buffers=replace(base.buffers, elastic=False),
        elasticity_enabled=False,
    )
