"""Runtime information collector (paper Section 5.1, Figure 18).

Periodically snapshots every task's context and aggregates the samples
into the query-stage-task hierarchy: per-stage output rows, exchange
turn-up counters, scan progress, DOPs, plus per-node CPU utilization and
NIC activity.  The what-if service, bottleneck localizer, and auto-tuner all
read from here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster.cluster import Cluster
from ..cluster.stage import StageSample
from ..sim import SimKernel

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution


@dataclass
class Snapshot:
    time: float
    stages: dict[int, StageSample] = field(default_factory=dict)
    #: node key -> mean CPU utilization since the previous snapshot.
    cpu_utilization: dict[str, float] = field(default_factory=dict)
    #: node key -> NIC busy fraction since the previous snapshot.
    nic_utilization: dict[str, float] = field(default_factory=dict)


#: Sampling period for runtime info (Section 5.1), virtual seconds.
COLLECTOR_PERIOD = 0.5


class RuntimeInfoCollector:
    def __init__(
        self,
        kernel: SimKernel,
        query: "QueryExecution",
        cluster: Cluster,
        window: int = 64,
    ):
        self.kernel = kernel
        self.query = query
        self.cluster = cluster
        self.samples: deque[Snapshot] = deque(maxlen=window)
        #: node key -> [node, mark time, busy-core-seconds mark, NIC-busy
        #: mark]; rebuilt (marks kept) only when a node joined the cluster.
        self._nodes: dict[str, list] = {}
        self._compute_count = -1
        self._stopped = False
        self._sample()

    # ------------------------------------------------------------------
    def _refresh_nodes(self) -> None:
        """Membership is append-only (``Cluster.add_compute``), so the
        compute count is its version.  Compute first, then storage: the
        order of every snapshot's utilization dicts."""
        known, self._nodes = self._nodes, {}
        for node in self.cluster.compute + self.cluster.storage:
            self._nodes[node.name] = known.get(node.name) or [node, None, 0.0, 0.0]
        self._compute_count = len(self.cluster.compute)

    def _sample(self) -> None:
        if self._stopped:
            return
        now = self.kernel.now
        snap = Snapshot(now)
        for stage_id, stage in self.query.stages.items():
            snap.stages[stage_id] = stage.sample()
        if len(self.cluster.compute) != self._compute_count:
            self._refresh_nodes()
        for key, mark in self._nodes.items():
            node, prev_time, prev_busy, prev_nic = mark
            busy = node.cpu.busy_core_seconds()
            nic_busy = node.nic.busy_seconds()
            if prev_time is not None:
                dt = now - prev_time
                if dt > 0:
                    snap.cpu_utilization[key] = (busy - prev_busy) / (
                        dt * node.cpu.cores
                    )
                    snap.nic_utilization[key] = min(1.0, (nic_busy - prev_nic) / dt)
            mark[1:] = now, busy, nic_busy
        self.samples.append(snap)
        if self.query.finished:
            self._stopped = True
            return
        self.kernel.schedule(COLLECTOR_PERIOD, self._sample)

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def latest(self) -> Snapshot | None:
        return self.samples[-1] if self.samples else None

    def window_samples(self, seconds: float) -> list[Snapshot]:
        if not self.samples:
            return []
        cutoff = self.samples[-1].time - seconds
        return [s for s in self.samples if s.time >= cutoff]

    def scan_consume_rate(self, stage_id: int, seconds: float = 3.0) -> float:
        """R_consume: rows/second leaving the scan stage's split feed."""
        window = self.window_samples(seconds)
        if len(window) < 2:
            return 0.0
        first, last = window[0], window[-1]
        a = first.stages.get(stage_id)
        b = last.stages.get(stage_id)
        if a is None or b is None or a.scan_rows_remaining is None:
            return 0.0
        dt = last.time - first.time
        if dt <= 0:
            return 0.0
        return max(0.0, (a.scan_rows_remaining - b.scan_rows_remaining) / dt)

    def cluster_cpu_headroom(self) -> tuple[float, float]:
        """(used core-fraction, idle core-fraction) across compute nodes."""
        snap = self.latest()
        if snap is None or not snap.cpu_utilization:
            return 0.0, 1.0
        computes = [
            v for k, v in snap.cpu_utilization.items() if k.startswith("compute")
        ] or list(snap.cpu_utilization.values())
        used = sum(computes) / len(computes)
        return used, max(0.0, 1.0 - used)

    def node_nic_utilization(self) -> dict[str, float]:
        snap = self.latest()
        return dict(snap.nic_utilization) if snap else {}
