#!/usr/bin/env python
"""The count clock, per layer: Python calls, allocations and pages per query.

    PYTHONPATH=src python tools/counts.py [--out COUNTS.json]
    python tools/counts.py --diff BASE_REV
    python tools/counts.py --check COUNTS.json FRESH.json

The first form runs two sets of texts, each on a fresh engine per text
over one catalog: ``tpch`` (Q5, Q9, Q18 at SF0.05, default config) and
``elastic`` (Q3, Q5 at SF0.01 with 1000x costs and 256-row pages, the
``elastic_tuned`` benchmark's engine, where host time goes to the
simulator, the drivers and the buffers between the operators).  Each text
runs once to warm the plan cache and the catalog's lazy columns, twice
under ``cProfile`` and once under ``tracemalloc``.  The calls are
attributed to layers by the file that defines the function called
(:data:`LAYERS`); a call into code outside ``src/repro`` — a builtin,
numpy, the stdlib — counts to the layer that made it.  Per text the file
records calls, simulated events, calls per layer, tracemalloc's peak
bytes, the blocks the query left allocated, and pages constructed per
page scanned.  A third record, ``cold_start``, comes from fresh
interpreters: the ``repro`` modules, and their source bytes, that
``import repro`` loads, and then one default-config Q6 over an archived
SF0.005 dataset (DESIGN.md §4 "Imports follow use").  It prints the
table, writes it as JSON and exits 1 if the two counted passes of any
text differ.  The file is byte-identical run to run: the counting runs
in a fresh interpreter with hash seed 0, under ``setarch -R`` (no
address-space randomisation) where it exists, started with one fixed
argv and with its standard streams on pipes and ``/dev/null`` whatever
the command line and its redirections, and hands its JSON back on
stdout.  Call counts depend on none of this; the tracemalloc figures
move by a few blocks with the argv's bytes and the kind of file each
stream is, and with the environment, so they repeat exactly for one
checkout and environment, with or without ``--out``.

The second form is the gate: it diffs ``COUNTS.json`` against the one
committed at ``BASE_REV`` and exits 1 when any layer of either set makes
more than 2 % more calls, unless the lines this change adds to
``CHANGES.md`` name that layer and the cause, as ``[counts] <layer>:
<cause>``.  A base without ``COUNTS.json`` passes with a note.

The third form checks that the committed file was regenerated: it exits
1 when any text's ``events`` or ``pages_per_scanned_page``, or the
``cold_start`` record, differ between the committed file and a fresh
run's, so an eager import that comes back fails it.  Neither depends on
numpy's Python-level calls, so a fresh run on another numpy still agrees.
"""

import argparse
import cProfile
import json
import os
import platform
import pstats
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
#: The layers, first match wins, as path prefixes under ``src/repro/``.
LAYERS = (
    ("sql", ("sql/",)),
    ("plan", ("plan/",)),
    ("cluster", ("cluster/",)),
    ("sim", ("sim/",)),
    ("exec/operators", ("exec/operators/",)),
    ("driver", ("exec/driver.py", "exec/task.py")),
    ("buffers", ("buffers/", "exec/exchange_client.py")),
    ("exec/spill", ("exec/spill/", "exec/memory.py")),
    ("obs", ("obs/",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS) + ("other",)
#: More calls than this in a layer (relative to the base) fail the gate.
MAX_GROWTH = 0.02
SETS = {
    "tpch": {"scale": 0.05, "texts": ("Q5", "Q9", "Q18"), "elastic": False},
    "elastic": {"scale": 0.01, "texts": ("Q3", "Q5"), "elastic": True},
}


def layer_of(filename: str) -> str | None:
    """The layer of a function defined in ``filename``; None outside
    ``src/repro``."""
    path = filename.replace(os.sep, "/")
    marker = "/src/repro/"
    if marker not in path:
        return None
    rel = path.split(marker, 1)[1]
    for name, prefixes in LAYERS:
        if rel.startswith(prefixes):
            return name
    return "other"


def attribute(stats: pstats.Stats) -> dict[str, int]:
    """Calls per layer.  A function outside ``src/repro`` counts, call
    by call, to its caller's layer; a caller that is outside too counts
    to the layer of its own most frequent caller (ties: the least key)."""
    table = stats.stats
    resolved: dict[tuple, str] = {}

    def outside_layer(func, seen=()) -> str:
        if func in resolved:
            return resolved[func]
        layer = layer_of(func[0])
        if layer is None:
            callers = table.get(func, (0, 0, 0, 0, {}))[4]
            if not callers or func in seen:
                layer = "other"
            else:
                top = min(callers, key=lambda c: (-callers[c][0], c))
                layer = outside_layer(top, seen + (func,))
        resolved[func] = layer
        return layer

    layers = dict.fromkeys(LAYER_NAMES, 0)
    for func, (_cc, ncalls, _tt, _ct, callers) in sorted(table.items()):
        layer = layer_of(func[0])
        if layer is not None:
            layers[layer] += ncalls
            continue
        attributed = 0
        for caller, (_ccc, caller_calls, *_rest) in sorted(callers.items()):
            layers[outside_layer(caller)] += caller_calls
            attributed += caller_calls
        layers["other"] += ncalls - attributed  # calls with no profiled caller
    return layers


def calls_of(stats: pstats.Stats, suffix: str, name: str) -> int:
    return sum(
        value[1]
        for (filename, _line, function), value in stats.stats.items()
        if function == name and filename.replace(os.sep, "/").endswith(suffix)
    )


def observe(catalog, text: str, config) -> dict:
    """One text's counts (the warm pass and both counted passes run on
    fresh engines over the same catalog)."""
    from repro import AccordionEngine, TPCH_QUERIES

    def run(measure):
        engine = AccordionEngine(catalog, config=config)
        return engine, measure(engine.execute, TPCH_QUERIES[text])

    run(lambda fn, sql: fn(sql))
    passes = []
    for _ in range(2):
        profile = cProfile.Profile()
        engine, _result = run(profile.runcall)
        stats = pstats.Stats(profile)
        passes.append({
            "calls": stats.total_calls,
            "events": engine.kernel.events_processed,
            "layers": attribute(stats),
            "pages_per_scanned_page": round(
                calls_of(stats, "pages/page.py", "__init__")
                / max(1, calls_of(stats, "exec/splits.py", "read")),
                4,
            ),
        })
    tracemalloc.start()
    engine, result = run(lambda fn, sql: fn(sql))
    _current, peak = tracemalloc.get_traced_memory()
    blocks = sum(stat.count for stat in tracemalloc.take_snapshot().statistics("filename"))
    tracemalloc.stop()
    del engine, result
    first, second = passes
    second.update(alloc_peak_bytes=peak, alloc_blocks=blocks, repeats=first == second)
    return second


def run_sets() -> dict:
    from repro import Catalog, CostModel, EngineConfig

    counts = {}
    for set_name, spec in SETS.items():
        config = (
            EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)
            if spec["elastic"] else None
        )
        catalog = Catalog.tpch(scale=spec["scale"])
        texts = {text: observe(catalog, text, config) for text in spec["texts"]}
        calls = sum(t["calls"] for t in texts.values())
        events = sum(t["events"] for t in texts.values())
        layers = {n: sum(t["layers"][n] for t in texts.values()) for n in LAYER_NAMES}
        counts[set_name] = {
            "scale": spec["scale"],
            "config": "1000x costs, 256-row pages" if spec["elastic"] else "default",
            "texts": texts,
            "total": {
                "calls": calls,
                "events": events,
                "calls_per_query": round(calls / len(texts), 1),
                "calls_per_event": round(calls / events, 4),
                "layers": layers,
                "layers_per_event": {n: round(c / events, 4) for n, c in layers.items()},
            },
        }
    return counts


#: Run in a fresh interpreter: the ``repro`` modules (name -> source
#: file) loaded after each step.
COLD_START = """
import json, sys

def loaded():
    return {name: module.__file__ for name, module in sorted(sys.modules.items())
            if name.partition(".")[0] == "repro"}

import repro
steps = {"import repro": loaded()}
repro.AccordionEngine(repro.Catalog.tpch(0.005)).execute(repro.TPCH_QUERIES["Q6"])
steps["default Q6"] = loaded()
print(json.dumps(steps))
"""


def cold_start() -> dict:
    """Per step of :data:`COLD_START`: the modules loaded and their
    source bytes.  A first interpreter writes the SF0.005 archive, so the
    measured one loads the dataset as the benchmark does."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=cache)
        for code in ("import repro; repro.Catalog.tpch(0.005)", COLD_START):
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True,
            )
    return {
        step: {
            "modules": len(files),
            "source_bytes": sum(Path(f).stat().st_size for f in files.values()),
            "names": list(files),
        }
        for step, files in json.loads(done.stdout).items()
    }


def measure() -> int:
    """Count in this interpreter: the table to stderr, the JSON to
    stdout; 1 if two counted passes of one text differ."""
    counts = run_sets()
    repeated = all(t.pop("repeats") for b in counts.values() for t in b["texts"].values())
    counts["cold_start"] = cold_start()
    print(render(counts), file=sys.stderr)
    sys.stdout.write(json.dumps(counts, indent=1) + "\n")
    if not repeated:
        print("counts: two counted passes of one text differ", file=sys.stderr)
    return int(not repeated)


def measure_pinned(out: str) -> int:
    """:func:`measure` in a fresh interpreter with hash seed 0 and, where
    ``setarch`` can turn it off, no address-space randomisation (an
    object's ``id`` orders its sets, and the order moves a few
    allocations), started with the same argv and standard streams
    whatever this command line was; its table is printed, its JSON goes
    to ``out``."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--measure"]
    if shutil.which("setarch"):
        argv = [shutil.which("setarch"), platform.machine(), "-R", *argv]
    child = subprocess.run(
        argv, env=dict(os.environ, PYTHONHASHSEED="0"), stdin=subprocess.DEVNULL,
        capture_output=True, text=True,
    )
    print(child.stderr, end="")
    if child.stdout:
        Path(out).write_text(child.stdout)
    return child.returncode


def render(counts: dict) -> str:
    lines = []
    for set_name in SETS:
        body = counts[set_name]
        lines.append(f"-- {set_name}: SF{body['scale']}, {body['config']}")
        for text, t in body["texts"].items():
            lines.append(
                f"{text}: {t['calls']} calls, {t['events']} events, peak "
                f"{t['alloc_peak_bytes']} B, {t['alloc_blocks']} blocks left, "
                f"{t['pages_per_scanned_page']} pages per scanned page"
            )
        total = body["total"]
        lines.append(f"calls per query: {total['calls_per_query']:.0f}")
        lines.append(f"calls per sim event: {total['calls_per_event']:.2f}")
        lines.append("  " + ", ".join(
            f"{name} {per:.2f}" for name, per in total["layers_per_event"].items()
        ))
    lines.append("-- cold start: repro modules loaded in a fresh interpreter")
    for step, record in counts["cold_start"].items():
        lines.append(f"{step}: {record['modules']} modules, {record['source_bytes']} B of source")
    return "\n".join(lines)


def git_show(rev: str, path: str) -> str | None:
    shown = subprocess.run(
        ["git", "show", f"{rev}:{path}"], cwd=ROOT, capture_output=True, text=True
    )
    return shown.stdout if shown.returncode == 0 else None


def diff(base_rev: str) -> int:
    """The gate: 0 when no layer grew more than :data:`MAX_GROWTH`, or
    every layer that did is named with its cause in the added CHANGES."""
    base_text = git_show(base_rev, "COUNTS.json")
    if base_text is None:
        print(f"counts: {base_rev} has no COUNTS.json; nothing to compare (pass)")
        return 0
    base = json.loads(base_text)
    head = json.loads((ROOT / "COUNTS.json").read_text())
    base_changes = set((git_show(base_rev, "CHANGES.md") or "").splitlines())
    added = [
        line for line in (ROOT / "CHANGES.md").read_text().splitlines()
        if line not in base_changes
    ]
    failed = 0
    for set_name in sorted(set(base) & set(head) & set(SETS)):
        old = base[set_name]["total"]["layers"]
        new = head[set_name]["total"]["layers"]
        for layer in LAYER_NAMES:
            before, after = old.get(layer, 0), new.get(layer, 0)
            growth = (after - before) / before if before else (1.0 if after else 0.0)
            status = "ok"
            if growth > MAX_GROWTH:
                tag = f"[counts] {layer}:"
                named = any(
                    tag in line and line.split(tag, 1)[1].strip() for line in added
                )
                status = "named in CHANGES" if named else "FAIL"
                failed += not named
            print(f"{set_name:8} {layer:15} {before:>9} -> {after:>9} {growth:+7.1%}  {status}")
    if failed:
        print(
            f"counts: {failed} layer(s) grew more than {MAX_GROWTH:.0%}; name each in "
            "CHANGES.md as '[counts] <layer>: <cause>' if the growth is meant"
        )
    return 1 if failed else 0


#: The fields of each text a fresh run must reproduce (``--check``).
CHECKED = ("events", "pages_per_scanned_page")


def check(committed_path: str, fresh_path: str) -> int:
    """0 when the fresh run agrees with the committed file on
    :data:`CHECKED` for every text of every set and on the cold start,
    else 1."""

    def fields(path: str) -> dict:
        counts = json.loads(Path(path).read_text())
        found = {
            (set_name, text, field): counts[set_name]["texts"][text][field]
            for set_name in SETS
            for text in counts[set_name]["texts"]
            for field in CHECKED
        }
        for step, record in counts.get("cold_start", {}).items():
            found.update({("cold_start", step, k): v for k, v in record.items()})
        return found

    committed, fresh = fields(committed_path), fields(fresh_path)
    stale = sorted(k for k in committed.keys() | fresh.keys() if committed.get(k) != fresh.get(k))
    for key in stale:
        print(f"counts: {' '.join(key)}: {committed.get(key)} committed, {fresh.get(key)} fresh")
    if stale:
        print(f"counts: {committed_path} is stale; regenerate it with tools/counts.py")
    return 1 if stale else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "COUNTS.json"))
    parser.add_argument("--diff", metavar="BASE_REV")
    parser.add_argument("--check", nargs=2, metavar=("COMMITTED", "FRESH"))
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.diff:
        sys.exit(diff(args.diff))
    if args.check:
        sys.exit(check(*args.check))
    sys.exit(measure() if args.measure else measure_pinned(args.out))
