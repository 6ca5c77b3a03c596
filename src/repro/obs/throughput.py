"""The runtime sampler: the one periodic reader of a running query
(paper Section 5.1, Figure 18; the curves of Figures 23-30).

A :class:`Sampler` samples at once, then every ``period`` virtual seconds
until the query is terminal.  Each sample appends one :class:`Snapshot`:
every stage's :class:`~repro.cluster.stage.StageSample`, plus per-node
CPU and NIC utilisation when the sampler is given the cluster.  Everything
else is a read of the snapshots: the throughput curves, the scan-stage
consumption rate ``R_consume``, the CPU headroom, the bottlenecks, and the
two Section 5 estimates built on them —

    T_remain = V_remain / R_consume                        (Section 5.2)
    T_pred   = (T_remain - T_tuning) / n_f + T_tuning      (Section 5.3)

with ``n_f = min(n2 / n1, n_f_max)``, ``n_f_max`` from the cluster's CPU
headroom (so "increase by 1000x" is tempered) and ``T_tuning`` ~0 without
a join, ~T_build (hash-table reconstruction) with one.

Two samplers run per tuned query: the coordinator's ``query.tracker``
(period 1 s, every sample kept: the curves and trace counters) and the
tuner's ``collector`` (period 0.5 s, cluster-aware, last 64 samples).
The event markers drawn over the curves are the query's decisions of
four kinds in the decision log:

* ``tuning`` — the red dashed lines (a DOP adjustment request),
* ``build_ready`` — the yellow dashed lines (hash table rebuilt),
* ``rejected`` and ``constraint`` — filtered requests, monitor deadlines.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING


if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..cluster.coordinator import QueryExecution
    from ..cluster.stage import StageSample
    from ..sim import SimKernel
    from .decisions import Decision
    from .timeseries import TimeSeries


#: Decision kinds drawn as markers on the throughput curves.
MARKER_KINDS = ("tuning", "build_ready", "rejected", "constraint")
#: NIC busy fraction above which a node is considered network-bound.
NIC_BOTTLENECK_THRESHOLD = 0.9


@dataclass(slots=True)
class Snapshot:
    time: float
    stages: dict[int, "StageSample"] = field(default_factory=dict)
    #: node key -> mean CPU utilization since the previous snapshot.
    cpu_utilization: dict[str, float] = field(default_factory=dict)
    #: node key -> NIC busy fraction since the previous snapshot.
    nic_utilization: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Bottleneck:
    stage: int
    kind: str  # "compute" | "network"
    detail: str = ""


@dataclass(frozen=True)
class WhatIfEstimate:
    stage: int
    current_dop: int
    target_dop: int
    t_remain: float
    t_tuning: float
    n_f: float
    t_predicted: float

    def describe(self) -> str:
        return (
            f"S{self.stage} {self.current_dop}->{self.target_dop}: "
            f"T_remain={self.t_remain:.2f}s T_tuning={self.t_tuning:.2f}s "
            f"n_f={self.n_f:.2f} => T_pred={self.t_predicted:.2f}s"
        )


class Sampler:
    def __init__(
        self,
        kernel: "SimKernel",
        query: "QueryExecution",
        period: float = 1.0,
        cluster: "Cluster | None" = None,
        window: int | None = None,
    ):
        self.kernel = kernel
        #: Weak: a tick still in the kernel's queue must not keep a
        #: retired query alive (DESIGN.md §17).
        self._query = weakref.ref(query)
        self.period = period
        self.cluster = cluster
        self.samples: deque[Snapshot] = deque(maxlen=window)
        #: node key -> [node, mark time, busy-core-seconds mark, NIC-busy
        #: mark]; rebuilt (marks kept) only when a node joined the cluster.
        self._nodes: dict[str, list] = {}
        self._compute_count = -1
        self._sample()

    @property
    def query(self) -> "QueryExecution | None":
        """The sampled query; ``None`` once nothing else holds it."""
        return self._query()

    # -- sampling -------------------------------------------------------------
    def _sample(self) -> None:
        query = self._query()
        if query is None:
            return  # retired and dropped: nobody can read a sample
        now = self.kernel.now
        snap = Snapshot(now)
        stages = snap.stages
        for stage_id, stage in query.stages.items():
            stages[stage_id] = stage.sample()
        if self.cluster is not None:
            self._sample_nodes(snap)
        self.samples.append(snap)
        if not query.finished:
            # Never cancelled: the lean path, in the same total order.
            self.kernel.post(self.period, self._sample)

    def _sample_nodes(self, snap: Snapshot) -> None:
        """Membership is append-only (``Cluster.add_compute``), so the
        compute count is its version.  Compute first, then storage: the
        order of every snapshot's utilization dicts."""
        cluster, now = self.cluster, snap.time
        if len(cluster.compute) != self._compute_count:
            known, self._nodes = self._nodes, {}
            for node in cluster.compute + cluster.storage:
                self._nodes[node.name] = known.get(node.name) or [node, None, 0.0, 0.0]
            self._compute_count = len(cluster.compute)
        cpu_utilization, nic_utilization = snap.cpu_utilization, snap.nic_utilization
        for key, mark in self._nodes.items():
            node, prev_time, prev_busy, prev_nic = mark
            cpu = node.cpu
            # ``busy_core_seconds()`` splits the busy integral where it is
            # read, and those split points are bits of every later
            # reading; with no core busy the integral is already current.
            busy = cpu.busy_core_seconds() if cpu.busy else cpu._busy_integral
            nic_busy = node.nic._busy_integral
            if prev_time is not None:
                dt = now - prev_time
                if dt > 0:
                    if busy == prev_busy and nic_busy == prev_nic:
                        # Idle since the last sample: both quotients are 0.0.
                        cpu_utilization[key] = nic_utilization[key] = 0.0
                    else:
                        cpu_utilization[key] = (busy - prev_busy) / (dt * cpu.cores)
                        nic_utilization[key] = min(1.0, (nic_busy - prev_nic) / dt)
            mark[1] = now
            mark[2] = busy
            mark[3] = nic_busy

    def _span(self, seconds: float) -> tuple[Snapshot, Snapshot] | None:
        """The oldest and the newest sample of the last ``seconds``; None
        while that window holds a single sample."""
        last = self.samples[-1]
        first = next(s for s in self.samples if s.time >= last.time - seconds)
        return None if first is last else (first, last)

    # -- curves (Figures 23-30) -------------------------------------------------
    def series(self, stage_id: int, name: str = "rows_out") -> TimeSeries:
        """One :class:`StageSample` field of ``stage_id`` over the samples."""
        from .timeseries import TimeSeries

        out = TimeSeries(f"stage{stage_id}.{name}")
        for snap in self.samples:
            out.append(snap.time, getattr(snap.stages[stage_id], name))
        return out

    def throughput(self, stage_id: int) -> TimeSeries:
        """Output rows/second series for one stage."""
        return self.series(stage_id).rates()

    def processing_rate(self, stage_id: int) -> TimeSeries:
        """Input rows/second series — the paper's per-stage throughput
        curves for stages whose output is deferred (e.g. join + partial
        aggregation stages).  Scan stages have no exchange input; their
        output rate is the processing rate."""
        source = self.query.stages[stage_id].fragment.is_source
        return self.series(stage_id, "rows_out" if source else "rows_received").rates()

    @property
    def markers(self) -> "list[Decision]":
        """This query's marker decisions (``.time``, ``.kind``, ``.stage``,
        ``.reason``), in order."""
        decisions = self.kernel.decisions.of(query_id=self.query.id)
        return [d for d in decisions if d.kind in MARKER_KINDS]

    def markers_of(self, kind: str) -> "list[Decision]":
        return self.kernel.decisions.of(kind=kind, query_id=self.query.id)

    # -- runtime information (Section 5.1) ---------------------------------------
    def scan_consume_rate(self, stage_id: int) -> float:
        """R_consume: rows/second leaving the scan stage's split feed over
        the last three seconds."""
        span = self._span(3.0)
        if span is None:
            return 0.0
        first, last = span
        a, b = first.stages.get(stage_id), last.stages.get(stage_id)
        if a is None or b is None or a.scan_rows_remaining is None:
            return 0.0
        consumed = a.scan_rows_remaining - b.scan_rows_remaining
        return max(0.0, consumed / (last.time - first.time))

    def cluster_cpu_headroom(self) -> tuple[float, float]:
        """(used core-fraction, idle core-fraction) across compute nodes."""
        cpu = self.samples[-1].cpu_utilization
        if not cpu:
            return 0.0, 1.0
        computes = [v for k, v in cpu.items() if k.startswith("compute")] or list(
            cpu.values()
        )
        used = sum(computes) / len(computes)
        return used, max(0.0, 1.0 - used)

    def bottlenecks(self) -> list[Bottleneck]:
        """Stages currently limiting query progress.  A stage whose exchange
        buffers keep turning up drains faster than its upstream produces; one
        that receives data while its turn-up counters stay flat is a
        computational bottleneck; a NIC near saturation is a network one."""
        span = self._span(2.0)
        if span is None:
            return []
        first, last = span
        query = self.query
        found: list[Bottleneck] = []
        for stage_id in sorted(query.stages):
            stage = query.stages[stage_id]
            a, b = first.stages.get(stage_id), last.stages.get(stage_id)
            if stage.finished or not stage.started or a is None or b is None:
                continue
            if stage.fragment.is_source:
                # A scan stage bottlenecks the query when its consumers starve:
                # their exchange buffers keep turning up while the scan runs.
                for parent_id in query.plan.parents_of(stage_id):
                    pa, pb = first.stages.get(parent_id), last.stages.get(parent_id)
                    if pa is None or pb is None:
                        continue
                    if pb.exchange_turn_up > pa.exchange_turn_up and not pb.finished:
                        found.append(Bottleneck(stage_id, "compute", "consumers starving"))
                        break
            elif b.rows_received > a.rows_received and not (
                b.exchange_turn_up > a.exchange_turn_up
            ):
                found.append(
                    Bottleneck(stage_id, "compute", "exchange turn-up counter flat")
                )
        for node_key, utilization in last.nic_utilization.items():
            if utilization >= NIC_BOTTLENECK_THRESHOLD:
                found.append(Bottleneck(-1, "network", f"{node_key} NIC at {utilization:.0%}"))
        return found

    # -- estimates (Sections 5.2, 5.3) -------------------------------------------
    def remaining_time(self, stage_id: int) -> float | None:
        """T_remain of a stage from the scan stage feeding (transitively) its
        probe input: streaming stages pull at their own processing rate, so
        that scan's consumption rate approximates the stage's progress.
        None while no rate is observable yet."""
        scan_id = self.query.plan.probe_scan(stage_id)
        scan = self.query.stages.get(scan_id) if scan_id is not None else None
        if scan is None or scan.split_feed is None:
            return None
        if scan.finished:
            return 0.0
        rate = self.scan_consume_rate(scan_id)
        return scan.split_feed.rows_remaining / rate if rate > 0 else None

    def estimate(self, stage_id: int, target_dop: int) -> WhatIfEstimate | None:
        """The what-if prediction: remaining time of ``stage_id`` at
        ``target_dop``; None while no progress rate is observable yet."""
        stage = self.query.stage(stage_id)
        current = max(1, stage.stage_dop)
        t_remain = self.remaining_time(stage_id)
        if t_remain is None:
            return None
        grows = target_dop > current
        t_tuning = stage.max_build_seconds() if grows and stage.has_join() else 0.0
        n_f = target_dop / current  # slowdowns are not CPU-bounded
        if grows:
            used, idle = self.cluster_cpu_headroom()
            if used > 0.0:
                n_f = min(n_f, 1.0 + idle / used)
        return WhatIfEstimate(
            stage=stage_id,
            current_dop=current,
            target_dop=target_dop,
            t_remain=t_remain,
            t_tuning=t_tuning,
            n_f=n_f,
            t_predicted=max(0.0, (t_remain - t_tuning)) / n_f + t_tuning,
        )
