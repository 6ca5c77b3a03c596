"""Self-checks of the benchmark (``python -m pytest bench -q``; ~2 min).

Not part of tier-1 (``pyproject.toml`` pins ``testpaths = ["tests"]``):
these run the benchmark itself at ``--quick`` size.
"""

from __future__ import annotations

import ast
import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((BENCH / "interactions.json").read_text())
#: Every workload ``bench/`` defines, and the ones the driver judges.
WORKLOADS = list(INTERACTIONS["workloads"])
JUDGED = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Metrics on the virtual clock: they must repeat exactly for a seed.
VIRTUAL = compare.EXACT
#: Workloads whose rounds depend on ``--seed`` beyond query order.
SEED_DRIVEN = ("elastic_tuned", "multi_tenant_adhoc")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the declaration ----------------------------------------------------------
def test_spec_has_the_contract_shape():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = (
        JUDGED
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_layer_metric_has_an_interaction_entry():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(INTERACTIONS["metrics"]) == layer
    for name, entry in INTERACTIONS["metrics"].items():
        group = INTERACTIONS["groups"][entry["group"]]
        assert entry["layer"], name
        assert group["moves"] and set(group["moves"]) <= end_to_end, name
        assert set(group.get("moves_virtual", ())) <= layer, name
        assert group["on"] and set(group["on"]) <= set(WORKLOADS), name
        assert set(group["not_on"]) <= set(WORKLOADS), name
        assert group["why"], name


def test_every_workload_names_its_intended_layers_and_bypass():
    import selfshare

    # The driver's list is a selection from the full one, in its order.
    assert [name for name in WORKLOADS if name in JUDGED] == JUDGED
    for name, entry in INTERACTIONS["workloads"].items():
        assert entry["intended"], name
        assert set(entry["intended"]) <= set(selfshare.PACKAGES), name
        assert entry["bypass"] in WORKLOADS and entry["bypass"] != name


def test_workload_names_match_the_code():
    import workloads

    assert list(workloads.WORKLOADS) == WORKLOADS
    for workload in SPEC["workloads"]:
        assert workloads.WORKLOADS[workload["name"]].why == workload["why"]


# -- the import lint ------------------------------------------------------------
#: Modules that may import layer packages, by ``__all__`` names only.
LAYER_MODULES = {"probes.py", "layers.py"}
#: The oracle has no ``__all__``; the issue names its entry point.
UNLISTED_OK = {("repro.reference", "execute_reference")}


def deep_imports(path: Path) -> list[tuple[str, list[str]]]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(a.name, []) for a in node.names if a.name.startswith("repro.")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.startswith("repro."):
                found.append((node.module, [a.name for a in node.names]))
    return found


def test_workload_code_imports_only_top_level_repro():
    for path in sorted(BENCH.glob("*.py")):
        if path.name not in LAYER_MODULES:
            assert deep_imports(path) == [], path.name


def test_layer_modules_import_only_exported_names():
    for name in sorted(LAYER_MODULES):
        for module, names in deep_imports(BENCH / name):
            assert names, f"{name}: bare 'import {module}'"
            exported = getattr(importlib.import_module(module), "__all__", ())
            for imported in names:
                assert imported in exported or (module, imported) in UNLISTED_OK, (
                    f"{name}: {module}.{imported} is not in __all__"
                )


# -- running it -------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = run("--quick", "--trace", "1", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


def traced(seed: int) -> dict[str, dict]:
    return {
        name: last_json(
            run("--workload", name, "--quick", "--seed", str(seed), "--trace", "1")
        )
        for name in WORKLOADS
    }


def test_quick_run_emits_every_metric_for_every_workload(quick_report):
    assert list(quick_report["workloads"]) == WORKLOADS
    for name, entry in quick_report["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        for metric in SPEC["end_to_end"]:
            got = entry["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
            assert all(value > 0 for value in got["values"]), (name, metric["name"])
        assert list(entry["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        for metric in SPEC["per_layer"]:
            got = entry["per_layer"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(got["value"], (int, float)), (name, metric["name"])
        shares = sum(
            value["value"]
            for metric, value in entry["per_layer"].items()
            if metric.startswith("self_share.")
        )
        assert shares == pytest.approx(1.0)
        assert (BENCH / "out" / f"trace_{name}.json").exists()


def test_driver_form_prints_one_result_line():
    result = last_json(
        run("--workload", "join_shuffle", "--quick", "--seed", "5",
            "--seconds", "1", "--trace", "0")
    )
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_virtual_clock_repeats_for_a_seed_and_follows_the_seed(quick_report):
    again, other = traced(3), traced(4)
    for name in WORKLOADS:
        first = quick_report["workloads"][name]["per_layer"]
        for metric in VIRTUAL:
            assert again[name]["metrics"][metric] == first[metric], (name, metric)
        # Another seed reorders the static workloads' queries, which moves
        # a float sum by ulps and nothing else.
        moved = [
            metric for metric in VIRTUAL
            if not math.isclose(
                other[name]["metrics"][metric]["value"], first[metric]["value"],
                rel_tol=1e-9,
            )
        ]
        assert bool(moved) == (name in SEED_DRIVEN), (name, moved)


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run("--workload", "scan_agg", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
    assert not (tmp_path / "src").exists()


# -- compare.py ---------------------------------------------------------------------
def report(walls: list[float]) -> dict:
    return {
        "workloads": {
            "scan_agg": {
                "failed": 0,
                "end_to_end": {"round_wall_s.p50": {"unit": "s", "values": walls}},
            }
        }
    }


def test_compare_verdicts():
    declared = [
        {"name": "round_wall_s.p50", "unit": "s", "better": "lower", "bound": 0.1}
    ]
    steady = report([1.0, 1.01, 0.99, 1.0])

    def verdict(other):
        return compare.compare(steady, other, declared)[0]["verdict"]

    assert verdict(report([1.05, 1.04, 1.06, 1.05])) == "ok"
    assert verdict(report([0.5, 0.5, 0.5, 0.5])) == "ok"
    assert verdict(report([1.3, 1.31, 1.29, 1.3])) == "worse"
    assert verdict(report([1.0, 1.4, 0.8, 1.3])) == "unresolved"


def traced_report(seed: int, events: float) -> dict:
    layer = {name: {"value": 0.0, "unit": "s"} for name in compare.EXACT}
    layer["sim.events"] = {"value": events, "unit": "count"}
    return {
        "seed": seed,
        "quick": False,
        "workloads": {"scan_agg": {"failed": 0, "end_to_end": {}, "per_layer": layer}},
    }


def test_compare_holds_the_virtual_clock_exact():
    base = traced_report(1, 1500.0)
    same = compare.compare_exact(base, traced_report(1, 1500.0))
    assert [row["metric"] for row in same] == list(compare.EXACT)
    assert {row["verdict"] for row in same} == {"same"}
    moved = compare.compare_exact(base, traced_report(1, 1501.0))
    assert [row["metric"] for row in moved if row["verdict"] == "differs"] == [
        "sim.events"
    ]
    assert compare.compare_exact(base, traced_report(2, 1501.0)) == []
