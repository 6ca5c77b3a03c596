"""Tracing-overhead gate: enabling the obs layer must cost <= 1.10x wall clock.

The one host-clock check that does not go through ``bench/`` (every other
performance question does: ``bench/run.py``, ``bench/compare.py``).  Runs
TPC-H Q3 at SF0.05 alternately with tracing off and on -- interleaved, so
host-load drift hits both modes equally -- and compares the *minimum* wall
time of each mode over five pairs, the least noisy estimator of true cost
on a shared machine.  ``bench``'s ``obs.trace_overhead_ratio`` is another
estimator (median traced round over median plain round) and reads higher.

Usage: python benchmarks/perf/trace_overhead.py   (exit 1 over the limit)
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import AccordionEngine, Catalog, EngineConfig, TPCH_QUERIES  # noqa: E402

SCALE = 0.05
SEED = 20250622
QUERY = "Q3"  # the paper's anchor query, a middle-of-the-pack span producer
REPEATS = 5
LIMIT = 1.10


def timed(catalog: Catalog, config: EngineConfig | None) -> tuple[float, list]:
    gc.collect()
    start = time.perf_counter()
    result = AccordionEngine(catalog, config=config).execute(TPCH_QUERIES[QUERY])
    return time.perf_counter() - start, sorted(result.rows)


def main() -> int:
    catalog = Catalog.tpch(SCALE, SEED)
    traced = EngineConfig().with_tracing()
    off: list[float] = []
    on: list[float] = []
    for _ in range(REPEATS):
        seconds, rows_off = timed(catalog, None)
        off.append(seconds)
        seconds, rows_on = timed(catalog, traced)
        on.append(seconds)
    if rows_off != rows_on:
        print("TRACE OVERHEAD CHECK FAILED: traced answers differ from untraced")
        return 1
    ratio = min(on) / min(off)
    print(f"{QUERY} tracing off {min(off):.3f}s / on {min(on):.3f}s -> "
          f"{ratio:.3f}x (limit {LIMIT}x)")
    return 1 if ratio > LIMIT else 0


if __name__ == "__main__":
    raise SystemExit(main())
