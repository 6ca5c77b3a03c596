#!/usr/bin/env python
"""Soak: does a long-lived engine stay flat as it serves windows of queries?

    PYTHONPATH=src python tools/soak.py

One engine with the ``multi_tenant_adhoc`` benchmark's configuration
(deadline arbitration, sharing, prediction; 20x costs) serves ``WINDOWS``
windows of 3 tenants x 8 Poisson arrivals over TPC-H at ``SCALE``.  Each
window deals six templates four times, two of them with a fresh date
literal, then materialises every answer and drops the handles, as a client that is done
with its queries would.  After a full collection, each window prints its
host milliseconds, the process RSS and the number of GC-tracked objects;
then the least-squares slope of each over the windows after ``WARMUP``.
Exits 1 when the object slope exceeds ``MAX_OBJECT_SLOPE`` objects per
window: an engine that keeps something of every query it served.
"""

from __future__ import annotations

import gc
import random
import resource
import sys
import time

from repro import (
    AccordionEngine,
    Catalog,
    CostModel,
    EngineConfig,
    PoissonArrivals,
    TPCH_QUERIES,
    Workload,
    WorkloadReport,
)

SCALE = 0.005
WINDOWS = 30
#: Windows before the slopes start: the plan and result caches fill.
WARMUP = 3
#: GC-tracked objects a window may add after warm-up.  An engine that
#: kept every retired execution added ~11,900; one that keeps records
#: adds ~1,000.
MAX_OBJECT_SLOPE = 3000

#: The ``multi_tenant_adhoc`` benchmark's engine configuration.
CONFIG = (
    EngineConfig(cost=CostModel().scaled(20.0))
    .with_workload(max_concurrent_queries=4, arbitration="deadline")
    .with_sharing(fold_window=0.05, cache_ttl=2.0)
    .with_prediction()
)

#: The date literal each template's fresh variant replaces.
DATED = {
    "Q1": "1998-12-01", "Q3": "1995-03-15", "Q5": "1994-01-01",
    "Q6": "1994-01-01", "Q12": "1994-01-01", "Q14": "1995-09-01",
}


def window_texts(rng: random.Random) -> list[str]:
    """Every template four times, two of them with a fresh date."""
    texts = []
    for index in range(24):
        name = list(DATED)[index % len(DATED)]
        sql = TPCH_QUERIES[name]
        if (index // len(DATED)) % 2:
            old = DATED[name]
            new = f"{rng.randint(1993, 1997)}-{old[5:7]}-{rng.randint(1, 28):02d}"
            sql = sql.replace(old, new)
        texts.append(sql)
    rng.shuffle(texts)
    return texts


def run_window(engine: AccordionEngine, seed: int) -> WorkloadReport:
    """One window: 3 tenants x 8 Poisson arrivals, every answer read,
    no handle kept."""
    texts = window_texts(random.Random(seed))
    workload = Workload(engine, seed=seed)
    for tenant in range(3):
        workload.add_tenant(
            f"tenant{tenant}", texts[tenant * 8:(tenant + 1) * 8],
            PoissonArrivals(rate=2.0, count=8), deadline=20.0,
        )
    report = workload.run()
    for handle in workload.handles:
        if handle.succeeded:
            handle.result()
    return report


def rss_mb() -> float:
    """Resident set size now (Linux ``/proc``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 1e6


def slope(values: list[float]) -> float:
    """Least-squares slope of ``values`` against their index."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x, mean_y = (n - 1) / 2, sum(values) / n
    num = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    return num / sum((i - mean_x) ** 2 for i in range(n))


def soak() -> list[tuple[float, float, int]]:
    """``(host ms, RSS MB, GC objects)`` after each window, printed as
    they come."""
    engine = AccordionEngine(Catalog.tpch(scale=SCALE), config=CONFIG)
    rows = []
    print(f"{'window':>6} {'host_ms':>8} {'rss_mb':>8} {'objects':>9}")
    for window in range(1, WINDOWS + 1):
        start = time.perf_counter()
        run_window(engine, seed=window)
        host_ms = (time.perf_counter() - start) * 1e3
        gc.collect()
        rows.append((host_ms, rss_mb(), len(gc.get_objects())))
        mark = " " if window > WARMUP else "w"
        print(f"{window:>6}{mark}{host_ms:>8.0f} {rows[-1][1]:>8.1f} {rows[-1][2]:>9}")
    return rows


def main() -> int:
    rows = soak()[WARMUP:]
    host, rss, objects = (slope([row[i] for row in rows]) for i in range(3))
    median_ms = sorted(row[0] for row in rows)[len(rows) // 2]
    print(
        f"after {WARMUP} warm-up windows, per window: "
        f"host {host:+.1f} ms (median {median_ms:.0f} ms), "
        f"RSS {rss:+.3f} MB, GC objects {objects:+.0f} "
        f"(bound {MAX_OBJECT_SLOPE})"
    )
    return int(objects > MAX_OBJECT_SLOPE)


if __name__ == "__main__":
    sys.exit(main())
