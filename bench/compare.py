#!/usr/bin/env python3
"""Compare two ``run.py --out`` files: one row per (workload, metric).

    python3 bench/compare.py A.json B.json

``A`` is the base.  Each row gives both medians, the ratio B/A with its
base, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  the spread between a file's own repeats (the distance
                  between their quartiles, as a share of their median; the
                  full range with fewer than four repeats) is wider than
                  the bound, so the difference cannot be told from noise.

When both files carry a traced pass (``run.py --trace 1 --out``) of the
same seed, the metrics on the virtual clock follow, one row each.  They
are exact for a seed, so they have no bound and no spread: the verdict
is ``same`` or ``differs``.

Exit status 1 if any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that must repeat exactly for a seed: the paper's
#: latency and compute consumption, deadlines, failures, and the kernel's
#: event count.
EXACT = (
    "virtual_latency_s.mean",
    "virtual_core_s_per_query",
    "deadline_miss_fraction",
    "failed_fraction",
    "sim.events",
)


def spread(values: list[float]) -> float:
    """Run-to-run spread of one metric, as a share of its median."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        quartiles = statistics.quantiles(values, n=4)
        width = quartiles[2] - quartiles[0]
    median = statistics.median(values)
    return abs(width / median) if median else 0.0


def worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def compare(a: dict, b: dict, declared: list[dict]) -> list[dict]:
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in declared:
            name = metric["name"]
            if name not in entry_a["end_to_end"] or name not in entry_b["end_to_end"]:
                continue
            values_a = entry_a["end_to_end"][name]["values"]
            values_b = entry_b["end_to_end"][name]["values"]
            median_a = statistics.median(values_a)
            median_b = statistics.median(values_b)
            noise = max(spread(values_a), spread(values_b))
            worse = worsening(median_a, median_b, metric["better"])
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": median_a,
                    "b": median_b,
                    "ratio": median_b / median_a if median_a else float("nan"),
                    "spread": noise,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def compare_exact(a: dict, b: dict) -> list[dict]:
    """One row per (workload, virtual-clock metric) both files traced."""
    if (a.get("seed"), a.get("quick")) != (b.get("seed"), b.get("quick")):
        return []  # another seed is other work: nothing to hold equal
    rows = []
    for workload, entry_a in a["workloads"].items():
        layer_a = entry_a.get("per_layer", {})
        layer_b = b["workloads"].get(workload, {}).get("per_layer", {})
        for name in EXACT:
            if name not in layer_a or name not in layer_b:
                continue
            value_a, value_b = layer_a[name]["value"], layer_b[name]["value"]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": layer_a[name]["unit"],
                    "a": value_a,
                    "b": value_b,
                    "verdict": "same" if value_a == value_b else "differs",
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(a, b, declared)
    print(
        f"{'workload':20s} {'metric':18s} {'A':>11s} {'B':>11s} "
        f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:20s} {row['metric']:18s} {row['a']:>11.5g} "
            f"{row['b']:>11.5g} {row['ratio']:>6.3f}x {row['spread']:>7.3f} "
            f"{row['bound']:>6.2f}  {row['verdict']}  (base A = "
            f"{row['a']:.5g} {row['unit']})"
        )
    exact = compare_exact(a, b)
    for row in exact:
        print(
            f"{row['workload']:20s} {row['metric']:26s} {row['a']!r:>22} "
            f"{row['b']!r:>22}  {row['verdict']}  ({row['unit']}, exact)"
        )
    failed = sum(
        entry["failed"] for report in (a, b) for entry in report["workloads"].values()
    )
    if failed:
        print(f"failed executions recorded in the inputs: {failed}")
    bad = [row for row in rows + exact if row["verdict"] in ("worse", "differs")]
    return 1 if failed or bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
