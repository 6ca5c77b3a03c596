"""The public-API import lint (tools/api_lint.py) as a tier-1 test:
examples/ and benchmarks/ must only import from the top-level ``repro``
package, and the linter must actually catch violations."""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
LINTER = REPO / "tools" / "api_lint.py"


def run_lint(*paths: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINTER), *paths],
        cwd=REPO,
        capture_output=True,
        text=True,
    )


def test_examples_and_benchmarks_use_public_surface():
    result = run_lint("examples", "benchmarks")
    assert result.returncode == 0, (
        "deep repro.* imports found:\n" + result.stdout + result.stderr
    )


def test_linter_flags_deep_imports(tmp_path):
    bad = tmp_path / "bad_example.py"
    bad.write_text(
        "from repro.cluster.coordinator import QueryOptions\n"
        "import repro.autotune\n"
        "from repro import AccordionEngine  # fine\n"
    )
    result = run_lint(str(tmp_path))
    assert result.returncode == 1
    assert "repro.cluster.coordinator" in result.stdout
    assert "repro.autotune" in result.stdout
    assert "AccordionEngine" not in result.stdout


def test_linter_ignores_relative_and_stdlib_imports(tmp_path):
    ok = tmp_path / "ok_example.py"
    ok.write_text(
        "import math\n"
        "from pathlib import Path\n"
        "from repro import AccordionEngine\n"
    )
    result = run_lint(str(tmp_path))
    assert result.returncode == 0


def test_public_surface_is_importable():
    import repro

    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []
    # What a user meets through a QueryHandle is importable from the top.
    assert {"Decision", "ProfileReport", "QueryTrace", "SharingInfo"} <= set(
        repro.__all__
    )


def readme_block(heading: str) -> str:
    """The first ``python`` code block after ``heading`` in README.md."""
    text = (REPO / "README.md").read_text()
    start = text.index("```python\n", text.index(heading)) + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_tuning_blocks_run(catalog):
    """README's runtime-tuning quickstart, then its deadline block on the
    same running query, against the tests' catalog: a renamed tuning
    method fails here, not in a reader's terminal."""
    tuning = readme_block("### Tuning a query while it runs")
    deadline = readme_block("### Deadline-driven auto-tuning")
    tpch = "AccordionEngine.tpch(scale=0.01, config=config)"
    assert tpch in tuning and tuning.rstrip().endswith("query.result()")
    body = tuning.replace(tpch, "AccordionEngine(catalog, config=config)")
    body = body.rstrip()[: -len("query.result()")]
    namespace = {"catalog": catalog}
    exec(body + deadline + "query.result()\n", namespace)
    query, elastic = namespace["query"], namespace["elastic"]
    assert query.finished
    assert [r.request.kind.value for r in elastic.tuner.applied][:2] == [
        "task_dop", "stage_dop",
    ]
    assert len(query.tracker.markers_of("constraint")) == 1


def test_bench_layer_modules_import_only_exported_names():
    """Tier-1 mirror of ``bench/test_bench.py::
    test_layer_modules_import_only_exported_names``: a name ``bench/``
    imports from a ``repro.*`` sub-package is part of that package's
    ``__all__``, so deleting or renaming it fails here, not only under
    ``pytest bench``."""
    unlisted_ok = {("repro.reference", "execute_reference")}  # no __all__
    for name in ("layers.py", "probes.py"):
        tree = ast.parse((REPO / "bench" / name).read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0):
                continue
            if not (node.module or "").startswith("repro."):
                continue
            exported = getattr(importlib.import_module(node.module), "__all__", ())
            for alias in node.names:
                assert alias.name in exported or (node.module, alias.name) in unlisted_ok, (
                    f"bench/{name}: {node.module}.{alias.name} is not in __all__"
                )


def test_pool_transport_bench_probes_round_trips_an_echo_job():
    """``bench/probes.py::_probe_parallel``'s exact call shape."""
    from repro import ParallelConfig
    from repro.parallel import OffloadClient

    client = OffloadClient(ParallelConfig(workers=2))
    arrays, values = client.wait(client.submit("_test_echo", [np.arange(8)], {}))
    assert values == {} and arrays[0].tolist() == list(range(8))


def test_design_sections_cited_in_the_source_exist():
    """Every ``DESIGN.md §N`` / ``§N.M`` a module, test, tool or figure
    test cites names a numbered heading of DESIGN.md, so renumbering the
    document cannot leave a dangling pointer behind."""
    headings = set(
        re.findall(r"^#{2,3} (\d+(?:\.\d+)?)\.? ", (REPO / "DESIGN.md").read_text(), re.M)
    )
    cited = {}
    for root in ("src/repro", "tests", "tools", "benchmarks"):
        for path in sorted((REPO / root).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for section in re.findall(r"DESIGN(?:\.md)?\s+§\s*(\d+(?:\.\d+)?)", text):
                cited.setdefault(section, path.relative_to(REPO).as_posix())
    assert {"7", "9", "10.1", "12", "20"} <= set(cited)
    assert {s: where for s, where in cited.items() if s not in headings} == {}


def test_every_package_and_module_is_in_the_module_map():
    """DESIGN.md §4's module map names every package under ``src/repro``
    (``name/``) and every module in it, so a package added or a module
    deleted shows up there."""
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    section = design[design.index("## 4. Module map"):design.index("## 5. ")]
    block = section.split("```")[1]
    words = set(re.findall(r"\w+", block))
    src = REPO / "src" / "repro"
    missing = []
    for package in sorted(p.parent for p in src.rglob("__init__.py")):
        name = package.relative_to(src).as_posix()
        if package != src and not re.search(rf"(^|\s){package.name}/", block, re.M):
            missing.append(f"{name}/")
        missing += [
            f"{name}/{p.name}" for p in package.glob("*.py")
            if p.stem != "__init__" and p.stem not in words
        ]
    assert missing == []
    listed = set(re.findall(r"(\w+)\.py", block))
    modules = {p.stem for p in src.rglob("*.py")}
    assert listed - modules == set()


#: Byte budget of the three long documents together, and of one CHANGES
#: entry; a full write-up beyond them lives in git history.
PROSE_BUDGET_BYTES = 250_000
CHANGES_ENTRY_BYTES = 1_500


def test_long_docs_stay_within_their_byte_budget():
    """DESIGN + EXPERIMENTS + CHANGES stay at or under 250 KB together,
    and every CHANGES entry (a line starting ``PR <n>``, with its
    continuation lines) at or under 1.5 KB."""
    sizes = {
        name: len((REPO / name).read_bytes())
        for name in ("DESIGN.md", "EXPERIMENTS.md", "CHANGES.md")
    }
    assert sum(sizes.values()) <= PROSE_BUDGET_BYTES, sizes
    changes = (REPO / "CHANGES.md").read_text(encoding="utf-8")
    entries = re.split(r"(?m)^(?=PR \d+)", changes)
    oversized = {
        entry.split(":", 1)[0]: len(entry.encode())
        for entry in entries
        if len(entry.encode()) > CHANGES_ENTRY_BYTES
    }
    assert oversized == {}
