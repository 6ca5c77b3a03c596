#!/usr/bin/env python3
"""The repo benchmark: six workloads on two clocks, with a per-layer ledger.

One workload, the form the benchmark driver uses (last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the driver
runs the four workloads ``BENCHMARK.json`` lists)::

    python3 bench/run.py --workload scan_agg --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --workload scan_agg --seed 3 --seconds 12 --trace 1

Every workload, one after another (never concurrently: the host has two
cores), every metric printed by name with its unit::

    python3 bench/run.py [--seed N] [--trace 1] [--repeats N] [--out FILE]
    python3 bench/run.py --quick --trace 1         # SF0.005, 3 rounds

``--trace 0`` reports the end-to-end metrics with every tracer off;
``--trace 1`` is a separate traced pass that reports the per-layer
metrics (see ``README.md`` for exact definitions).  With one workload it
runs instead of the untraced pass (the driver wants one metric list per
run), with all workloads after it.

Process layout: this file, run as above, only orchestrates.  Every
measurement happens in a fresh child process (``--child``): ``provision``
generates the datasets into ``REPRO_CACHE_DIR`` (untimed, once per
checkout); an untraced run is three ``measure`` children one after
another, each of which sets up and then runs a third of the rounds (so
set-up is sampled three times, and the rounds see three heap layouts and
hash seeds, not one); a traced run is one ``trace`` child.  A child
reports the time from the moment its parent spawned it to the moment it
is ready for its first measured round; ``setup_s`` is the median over the
children.

Every host time among the end-to-end metrics is divided by the host's
slowdown measured alongside it (``hostcal.py`` says why and how); the
uncorrected values are printed next to them.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostcal  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh processes per untraced run: each sets up (one ``setup_s`` sample)
#: and measures its share of the rounds.
PARTS = 3
#: Rounds executed after the cold executions and before the first sample.
WARMUP_ROUNDS = 2
#: A child that has not finished by then has hung (a run is ~20 s): the
#: run fails; it is never cut short, so both sides of a comparison always
#: measure the same number of rounds.
CHILD_TIMEOUT_S = 150
#: Dataset generation, once per checkout.
PROVISION_TIMEOUT_S = 800
#: Traced pass: rounds with the bench's spans + the operator profiler,
#: interleaved baseline rounds per other variant, and cProfile rounds.
TRACED_ROUNDS, BASELINE_ROUNDS, PROFILE_ROUNDS = 6, 3, 2
QUICK_ROUNDS = 3


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    """Every workload this directory defines.  ``BENCHMARK.json`` lists
    the ones the benchmark driver judges, a subset (README: why)."""
    return list(json.loads((BENCH_DIR / "interactions.json").read_text())["workloads"])


def cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR") or ROOT / ".repro-cache")


# ============================================================================
# Orchestrator: spawns children, aggregates, prints.
# ============================================================================
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir())
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(kind: str, args, workload: str | None = None, part=(0, 1)) -> dict:
    """Run one child to completion; returns the JSON it printed last."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", kind,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--part", str(part[0]), "--parts", str(part[1]),
        "--spawned-at", repr(time.time()),
    ]
    if workload is not None:
        command += ["--workload", workload]
    if args.quick:
        command.append("--quick")
    timeout = PROVISION_TIMEOUT_S if kind == "provision" else CHILD_TIMEOUT_S
    try:
        done = subprocess.run(
            command, env=child_env(), stdout=subprocess.PIPE, text=True,
            check=False, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"bench: {kind} child for {workload or 'datasets'} hung "
            f"(killed after {timeout} s)"
        ) from None
    if done.returncode != 0:
        raise SystemExit(
            f"bench: {kind} child for {workload or 'datasets'} exited with "
            f"{done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def provision(args) -> None:
    """Generate the datasets once per checkout (untimed)."""
    stamp = cache_dir() / ("bench-provisioned-quick" if args.quick else "bench-provisioned")
    if not stamp.exists():
        spawn("provision", args)
        stamp.parent.mkdir(parents=True, exist_ok=True)
        stamp.write_text("datasets generated by bench/run.py\n")


def run_untraced(name: str, args) -> dict:
    """End-to-end metrics of one workload: ``{"metrics", "attempted", ...}``."""
    parts = 1 if args.quick else PARTS
    children = [spawn("measure", args, name, (part, parts)) for part in range(parts)]
    setups = [c["setup_s"] / hostcal.slowdown(c["setup_cals"]) for c in children]
    raw = [wall for c in children for wall in c["round_walls"]]
    # Each round is corrected by the kernel samples on either side of it.
    walls = [
        wall / hostcal.slowdown([before, after])
        for c in children
        for wall, before, after in zip(
            c["round_walls"], c["round_cals"], c["round_cals"][1:]
        )
    ]
    queries = sum(c["queries"] for c in children)
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": queries / sum(walls),
        "round_wall_s.p50": statistics.median(walls),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }
    quartiles = statistics.quantiles(raw, n=4, method="inclusive")
    info = {
        "rounds": len(raw),
        "host_slowdown": hostcal.slowdown(
            [cal for c in children for cal in c["round_cals"]]
        ),
        "uncorrected.setup_s": statistics.median(c["setup_s"] for c in children),
        "uncorrected.queries_per_s": queries / sum(raw),
        "uncorrected.round_wall_s.p50": quartiles[1],
        "uncorrected.round_wall_s.p75": quartiles[2],
    }
    return {
        "metrics": metrics,
        "info": info,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "failures": [failure for c in children for failure in c["failures"]],
    }


def with_units(values: dict, declared: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: metrics not produced: {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }


def print_metrics(name: str, metrics: dict, info: dict | None = None) -> None:
    for metric, entry in metrics.items():
        print(f"{name:20s} {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
    for label, value in (info or {}).items():
        print(f"{name:20s} ({label}){'':{max(38 - len(label), 0)}s} {value:>16.6g}")


def share_notes(name: str, traced: dict[str, dict]) -> list[str]:
    """Where the traced pass put ``name``'s self time: the plurality, the
    share of its intended layers, and their share on its bypass workload
    (when that one was traced too)."""
    def shares(workload: str) -> dict[str, float]:
        prefix = "self_share."
        return {
            metric[len(prefix):]: entry["value"]
            for metric, entry in traced[workload].items()
            if metric.startswith(prefix)
        }

    declared = json.loads((BENCH_DIR / "interactions.json").read_text())
    intended_layers = declared["workloads"][name]["intended"]
    bypass = declared["workloads"][name]["bypass"]
    own = shares(name)
    top = sorted(own.items(), key=lambda item: item[1], reverse=True)[:4]
    intended = sum(own[package] for package in intended_layers)
    line = (
        f"intended layers ({', '.join(intended_layers)}) hold {intended:.0%} of "
        "self time here"
    )
    if bypass in traced:
        there = sum(shares(bypass)[package] for package in intended_layers)
        line += f", {there:.0%} on its bypass {bypass}"
    metrics = traced[name]
    return [
        "self-time plurality: "
        + ", ".join(f"{package} {share:.0%}" for package, share in top),
        line,
        f"spans cover {metrics['round.span_coverage']['value']:.1%} of traced "
        "round wall; traced/untraced p50 = "
        f"{metrics['obs.profile_overhead_ratio']['value']:.3f}",
    ]


def tally(entry: dict, result: dict) -> None:
    """Add one child's executions to a workload's report entry."""
    entry["attempted"] += result["attempted"]
    entry["failed"] += result["failed"]
    for failure in result["failures"][:10]:
        print(f"bench: FAILED {failure}", file=sys.stderr)


def drive_one(args) -> int:
    """The benchmark driver's form: one workload, one JSON line."""
    declared = spec()
    provision(args)
    if args.trace:
        result = spawn("trace", args, args.workload)
        metrics = with_units(result["metrics"], declared["per_layer"])
    else:
        result = run_untraced(args.workload, args)
        metrics = with_units(result["metrics"], declared["end_to_end"])
    print_metrics(args.workload, metrics, result.get("info"))
    if args.trace:
        for line in share_notes(args.workload, {args.workload: metrics}):
            print(f"{args.workload:20s} {line}")
    counts = {"attempted": 0, "failed": 0}
    tally(counts, result)
    print(json.dumps({"correct": counts["failed"] == 0, **counts, "metrics": metrics}))
    return 0 if counts["failed"] == 0 else 1


def drive_all(args) -> int:
    """Every workload in turn; prints every metric, optionally writes them."""
    declared = spec()
    provision(args)
    names = workload_names()
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "repeats": args.repeats,
        "workloads": {
            name: {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
            for name in names
        },
    }
    for _ in range(args.repeats):
        for name in names:
            result = run_untraced(name, args)
            entry = report["workloads"][name]
            tally(entry, result)
            metrics = with_units(result["metrics"], declared["end_to_end"])
            print_metrics(name, metrics, result["info"])
            for metric, value in metrics.items():
                entry["end_to_end"].setdefault(
                    metric, {"unit": value["unit"], "values": []}
                )["values"].append(value["value"])
    if args.trace:
        for name in names:
            result = spawn("trace", args, name)
            entry = report["workloads"][name]
            tally(entry, result)
            metrics = with_units(result["metrics"], declared["per_layer"])
            print_metrics(name, metrics)
            entry["per_layer"] = metrics
        traced = {name: report["workloads"][name]["per_layer"] for name in names}
        for name in names:
            for line in share_notes(name, traced):
                print(f"{name:20s} {line}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    return 0 if failed == 0 else 1


# ============================================================================
# Children: each is one fresh process.
# ============================================================================
def rounds_for(workload, args) -> int:
    """The one rule for run length: a count, identical on both commits
    of a comparison.  This is one child's share of the run's rounds."""
    if args.quick:
        return QUICK_ROUNDS
    return max(1, round(args.seconds / workload.nominal_round_s / args.parts))


def live_children() -> list[tuple[int, str]]:
    """``(pid, command line)`` of this process's running children."""
    found = []
    for task in Path("/proc/self/task").iterdir():
        for pid in map(int, (task / "children").read_text().split()):
            try:
                found.append((pid, Path(f"/proc/{pid}/cmdline").read_text()))
            except OSError:
                continue  # exited between the two reads
    return found


class Hygiene:
    """Asserts the child leaves nothing behind: no worker process, no
    ``/dev/shm`` segment, no spill directory."""

    SHM = Path("/dev/shm")

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.segments = self._segments()

    def _segments(self) -> set[str]:
        return set(os.listdir(self.SHM)) if self.SHM.is_dir() else set()

    def check(self) -> None:
        problems = []
        # multiprocessing's resource tracker is not a worker: it exits
        # with the interpreter.
        if workers := [
            pid for pid, command in live_children()
            if "resource_tracker" not in command
        ]:
            problems.append(f"worker processes survived: {workers}")
        if leaked := sorted(self._segments() - self.segments):
            problems.append(f"/dev/shm segments survived: {leaked}")
        if leftovers := sorted(p.name for p in self.scratch.iterdir()):
            problems.append(f"scratch entries survived: {leftovers}")
        self.scratch.rmdir()
        if problems:
            raise SystemExit("bench: hygiene: " + "; ".join(problems))


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of each running child, summed.

    Read while the pool workers are still alive: ``RUSAGE_CHILDREN``
    counts only children already waited for, and then only the largest.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid, _command in live_children():
        status = Path(f"/proc/{pid}/status").read_text()
        total_kb += int(status.split("VmHWM:")[1].split()[0])
    return total_kb / 1024.0


def timed_round(workload, round_seed: int, variant: str, rec):
    """One round: returns (wall seconds, RoundStats)."""
    plan = workload.plan_round(round_seed, variant)
    gc.collect()
    with rec.span("round"):
        start = time.perf_counter()
        done = workload.run_round(plan, rec)
        wall = time.perf_counter() - start
    return wall, workload.account(done)


def check_oracle(workload, seed: int) -> list[str]:
    """Every template (with literal variants) against the reference
    executor at the oracle scale; returns the mismatching texts."""
    import layers
    import workloads
    from repro import AccordionEngine, Catalog

    scale = workloads.QUICK_SCALE if workload.quick else workloads.ORACLE_SCALE
    catalog = Catalog.tpch(scale, workloads.DATASET_SEED)
    bad = []
    for sql in workload.oracle_texts(seed):
        rows = AccordionEngine(catalog).execute(sql).rows
        if not workloads.rows_match(rows, layers.oracle_rows(catalog, sql)):
            bad.append("oracle mismatch: " + " ".join(sql.split())[:80])
    return bad


def child_main(args) -> int:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"bench: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    import layers
    import spans
    import workloads

    if args.child == "provision":
        return child_provision(args, workloads)

    hygiene = Hygiene(cache_dir() / f"bench-scratch-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.quick, hygiene.scratch)
    variants = workload.variants() if args.child == "trace" else ("plain",)
    rng = random.Random(f"{args.seed}/{args.part}")
    off = spans.Recorder(enabled=False)
    try:
        workload.setup(variants)
        # The traced pass warms several engine variants: one round each.
        for _ in range(1 if args.child == "trace" else WARMUP_ROUNDS):
            round_seed = rng.getrandbits(32)
            for variant in variants:
                timed_round(workload, round_seed, variant, off)
        result = {
            "setup_s": time.time() - args.spawned_at,
            "setup_cals": [hostcal.kernel() for _ in range(3)],
        }
        if args.child == "measure":
            result.update(child_measure(args, workload, rng, off))
        elif args.child == "trace":
            result.update(child_trace(args, workload, rng, off, hygiene.scratch))
    finally:
        workload.close()
        layers.shutdown_pools()
    hygiene.check()
    print(json.dumps(result))
    return 0


def child_provision(args, workloads) -> int:
    import probes
    from repro import Catalog

    scales = {probes.PROBE_SCALE, workloads.ORACLE_SCALE, workloads.QUICK_SCALE}
    if not args.quick:
        scales |= {cls.scale for cls in workloads.WORKLOADS.values()}
    for scale in sorted(scales):
        Catalog.tpch(scale, workloads.DATASET_SEED)
    print(json.dumps({"scales": sorted(scales)}))
    return 0


def child_measure(args, workload, rng, off) -> dict:
    import workloads

    total = workloads.RoundStats()
    walls, cals = [], []
    for _ in range(rounds_for(workload, args)):
        cals.append(hostcal.kernel())
        wall, stats = timed_round(workload, rng.getrandbits(32), "plain", off)
        walls.append(wall)
        total.merge(stats)
    cals.append(hostcal.kernel())
    rss = peak_rss_mb()
    # One oracle check per run: the last child's.
    oracle = args.part == args.parts - 1
    failures = total.failures + (check_oracle(workload, args.seed) if oracle else [])
    return {
        "round_walls": walls,
        "round_cals": cals,
        "queries": total.queries,
        "attempted": total.queries
        + (len(workload.oracle_texts(args.seed)) if oracle else 0),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": rss,
    }


def child_trace(args, workload, rng, off, scratch: Path) -> dict:
    import cProfile

    import layers
    import probes
    import selfshare
    import spans
    import workloads
    from repro import AccordionEngine, EngineConfig, QueryOptions

    quick = args.quick
    traced_rounds = QUICK_ROUNDS if quick else TRACED_ROUNDS
    baseline_rounds = 1 if quick else BASELINE_ROUNDS
    rec = spans.Recorder(enabled=True)
    cold_planner = AccordionEngine(
        workload.catalog, config=EngineConfig(plan_cache=False)
    ).coordinator
    ledger = workloads.RoundStats()
    walls: dict[str, list[float]] = {variant: [] for variant in workload.variants()}
    cals = []
    for index in range(traced_rounds):
        round_seed = rng.getrandbits(32)
        cals.append(hostcal.kernel())
        for variant in workload.variants():
            if variant == "profiled":
                wall, stats = timed_round(workload, round_seed, variant, rec)
                ledger.merge(stats)
                layers.replay_plan_spans(
                    rec, workload.catalog,
                    lambda sql: cold_planner.plan_sql(sql, QueryOptions()),
                    stats.texts,
                )
            elif index < baseline_rounds:
                wall, stats = timed_round(workload, round_seed, variant, off)
                ledger.failed += stats.failed
                ledger.failures.extend(stats.failures)
            else:
                continue
            walls[variant].append(wall)

    profile = cProfile.Profile()
    for _ in range(1 if quick else PROFILE_ROUNDS):
        plan = workload.plan_round(rng.getrandbits(32), "plain")
        profile.enable()
        done = workload.run_round(plan, off)
        profile.disable()
        workload.account(done)
    shares = selfshare.shares(profile)

    probed = probes.run_probes(scratch, reps=1 if quick else 3)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rec.write_chrome_trace(OUT_DIR / f"trace_{workload.name}.json")
    metrics = layer_metrics(ledger, rec, walls, shares)
    metrics.update(probed)
    metrics["host.slowdown"] = hostcal.slowdown(cals)
    failures = ledger.failures
    return {
        "metrics": metrics,
        "attempted": ledger.queries,
        "failed": len(failures),
        "failures": failures,
    }


def layer_metrics(ledger, rec, walls, shares) -> dict:
    """Per-layer metrics from the traced rounds (per query unless noted)."""
    queries = max(ledger.queries, 1)
    seconds = rec.seconds_by_name()
    counters = ledger.counters
    samples = ledger.samples

    def per_query(name: str, scale: float = 1.0) -> float:
        return counters.get(name, 0.0) * scale / queries

    def span_ms(name: str) -> float:
        return seconds.get(name, 0.0) * 1e3 / queries

    def mean(name: str) -> float:
        values = samples.get(name, [])
        return sum(values) / len(values) if values else 0.0

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def overhead(variant: str) -> float:
        base = walls["plain"]
        return ratio(
            statistics.median(walls[variant][: len(base)]), statistics.median(base)
        )

    replayed = max(len(ledger.texts), 1)
    parse_ms = seconds.get("sql.parse", 0.0) * 1e3 / replayed
    logical_ms = seconds.get("plan.logical", 0.0) * 1e3 / replayed
    cold_ms = seconds.get("plan.cold", 0.0) * 1e3 / replayed
    op_ms = {
        name.removesuffix("Operator"): value * 1e3 / queries
        for name, value in ledger.op_seconds.items()
    }
    run_ms = span_ms("engine.run")
    covered = sum(seconds.get(n, 0.0) for n in
                  ("cluster.submit", "engine.run", "engine.materialize"))
    events = counters.get("sim.events_processed", 0.0)
    hits = counters.get("plan_cache.hits", 0.0)
    misses = counters.get("plan_cache.misses", 0.0)
    metrics = {
        "sql.parse_ms": parse_ms,
        "plan.logical_ms": logical_ms,
        "plan.physical_ms": max(cold_ms - parse_ms - logical_ms, 0.0),
        "plan.cache_hit_ratio": ratio(hits, hits + misses),
        "cluster.submit_ms": span_ms("cluster.submit"),
        "engine.run_ms": run_ms,
        "engine.materialize_ms": span_ms("engine.materialize"),
        "round.span_coverage": ratio(covered, sum(walls["profiled"])),
        "cluster.rpc_requests": per_query("rpc.total_requests"),
        "cluster.rpc_retried": per_query("rpc.retried_requests"),
        "sim.events": events / queries,
        "sim.events_per_s": ratio(events, seconds.get("engine.run", 0.0)),
        "exec.op_ms.PartialAgg": op_ms.get("PartialAgg", 0.0),
        "exec.op_ms.FinalAgg": op_ms.get("FinalAgg", 0.0),
        "exec.op_ms.HashJoinProbe": op_ms.get("HashJoinProbe", 0.0),
        "exec.op_ms.Filter": op_ms.get("Filter", 0.0),
        "exec.op_ms.Project": op_ms.get("Project", 0.0),
        "exec.op_ms.SortTopN": op_ms.get("Sort", 0.0) + op_ms.get("TopN", 0.0),
        "exec.residual_ms": run_ms - sum(op_ms.values()),
        "exec.peak_tracked_mb": ledger.peak_tracked_bytes / 1e6,
        "obs.profile_overhead_ratio": overhead("profiled"),
        "obs.trace_overhead_ratio": overhead("traced"),
        "spill.spills": per_query("spill.spills"),
        "spill.spilled_mb": per_query("spill.spilled_bytes", 1e-6),
        "spill.peak_ratio": mean("spill.peak_ratio"),
        "parallel.jobs": per_query("parallel.jobs"),
        "parallel.mb_out": per_query("parallel.bytes_out", 1e-6),
        "parallel.mb_in": per_query("parallel.bytes_in", 1e-6),
        "parallel.exec_ms": per_query("parallel.exec_ms"),
        "parallel.wait_ms": per_query("parallel.wait_ms"),
        "parallel.utilization": ratio(
            counters.get("parallel.exec_ms", 0.0), counters.get("parallel.wait_ms", 0.0)
        ),
        "parallel.retries": counters.get("parallel.retries", 0.0),
        "parallel.crashes": counters.get("parallel.crashes", 0.0),
        # serial p50 / offload p50, from the interleaved bypass rounds
        "parallel.speedup_vs_serial": overhead("serial") if "serial" in walls else 0.0,
        "elastic.requests": per_query("elastic.requests"),
        "elastic.rejected": per_query("elastic.rejected"),
        "elastic.switch_virtual_s": mean("elastic.switch_virtual_s"),
        "autotune.actions": per_query("autotune.actions"),
        "workload.queue_wait_virtual_s": per_query("workload.queue_wait_virtual_s"),
        "workload.grants": per_query("arbiter.grants"),
        "workload.trims": per_query("arbiter.trims"),
        "workload.defers": per_query("arbiter.deferrals"),
        "sharing.fold_ratio": per_query("sharing.folds"),
        "sharing.cache_hit_ratio": per_query("sharing.cache_hits"),
        "predict.pregrants": per_query("predict.pregrants"),
        "predict.rel_error": mean("predict.rel_error"),
        "virtual_latency_s.mean": ledger.virtual_latency / queries,
        "virtual_core_s_per_query": ledger.virtual_core_seconds / queries,
        "deadline_miss_fraction": ratio(ledger.deadline_missed, ledger.deadline_total),
        "failed_fraction": ledger.failed / queries,
    }
    for package, share in shares.items():
        metrics[f"self_share.{package}"] = share
    return metrics


# ============================================================================
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics); with one "
                             "workload instead of the untraced pass, with all "
                             "workloads after it")
    parser.add_argument("--quick", action="store_true",
                        help=f"SF0.005, {QUICK_ROUNDS} rounds, one set-up sample")
    parser.add_argument("--repeats", type=int, default=1,
                        help="all workloads: repeat the untraced pass")
    parser.add_argument("--out", help="all workloads: write every value as JSON")
    parser.add_argument("--child", choices=("provision", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--parts", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    if args.child:
        return child_main(args)
    if args.workload:
        known = workload_names()
        if args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; one of {known}")
        return drive_one(args)
    return drive_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
