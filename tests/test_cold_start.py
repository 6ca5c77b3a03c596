"""Imports follow use (DESIGN.md §4): a fresh interpreter loads only the
subsystems a program reaches, and every public name still resolves.

Each check runs in a new interpreter (``sys.modules`` of the test session
already holds everything), over an archived SF0.005 dataset so that the
load path, not the generator, serves the catalog.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SCALE, SEED = 0.005, 777

#: Modules (and packages, with everything under them) that a
#: default-config query never needs.
DEFERRED = (
    "repro.autotune.service",
    "repro.autotune.tuner",
    "repro.cluster.membership",
    "repro.data.csvio",
    "repro.data.tpch.generator",
    "repro.data.tpch.text",
    "repro.elastic",
    "repro.exec.spill",
    "repro.experiments",
    "repro.obs.export",
    "repro.obs.profile",
    "repro.obs.report",
    "repro.obs.timeseries",
    "repro.predict",
    "repro.script",
    "repro.sharing",
    "repro.workload.admission",
    "repro.workload.arbiter",
    "repro.workload.autoscaler",
    "repro.workload.session",
)

PRELUDE = """
import json, sys
def loaded(*prefixes):
    return sorted(
        name for name in sys.modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )
"""


def run_fresh(code: str, cache_dir: Path) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache_dir))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory) -> Path:
    """A dataset cache holding the SF0.005 archive."""
    path = tmp_path_factory.mktemp("cold-start-cache")
    run_fresh(
        f"""
        from repro import Catalog
        Catalog.tpch({SCALE}, {SEED})
        print(json.dumps({{}}))
        """,
        path,
    )
    return path


def test_every_public_name_resolves_in_a_fresh_interpreter(cache_dir):
    import repro

    out = run_fresh(
        """
        import repro
        first = loaded("repro")
        before = list(repro.__all__)
        resolved = [name for name in before if getattr(repro, name) is not None]
        print(json.dumps({"first": first, "all": before, "after": list(repro.__all__),
                          "resolved": resolved}))
        """,
        cache_dir,
    )
    assert out["first"] == ["repro"]
    assert out["all"] == out["after"] == out["resolved"] == list(repro.__all__)


def test_a_default_query_loads_no_optional_subsystem(cache_dir):
    out = run_fresh(
        f"""
        from repro import AccordionEngine, Catalog, TPCH_QUERIES
        rows = AccordionEngine(Catalog.tpch({SCALE}, {SEED})).execute(TPCH_QUERIES["Q6"]).rows
        print(json.dumps({{"rows": repr(rows), "deferred": loaded(*{DEFERRED!r})}}))
        """,
        cache_dir,
    )
    assert out["deferred"] == []


def test_each_subsystem_loads_with_its_first_use_and_answers_alike(cache_dir):
    out = run_fresh(
        f"""
        import repro
        from repro import AccordionEngine, Catalog, EngineConfig, TPCH_QUERIES
        catalog = Catalog.tpch({SCALE}, {SEED})
        sql = TPCH_QUERIES["Q6"]
        answers, loads = {{}}, {{}}

        def use(name, modules, run):
            before = set(loaded(*modules))
            answers[name] = repr(run())
            loads[name] = sorted(set(loaded(*modules)) - before)

        use("plain", ["repro"], lambda: AccordionEngine(catalog).execute(sql).rows)
        use("sharing", ["repro.sharing"], lambda: AccordionEngine(
            catalog, EngineConfig().with_sharing()).execute(sql).rows)
        use("prediction", ["repro.predict"], lambda: AccordionEngine(
            catalog, EngineConfig().with_prediction()).execute(sql).rows)
        use("session", ["repro.workload"], lambda: AccordionEngine(
            catalog, EngineConfig().with_workload(max_concurrent_queries=2)
        ).session("tenant").submit(sql).result().rows)
        use("script", ["repro.script"], lambda: repro.run_script(
            AccordionEngine(catalog), "submit q6 Q6\\nrun until q6 done"
        ).query("q6").result().rows)
        print(json.dumps({{"answers": answers, "loads": loads}}))
        """,
        cache_dir,
    )
    answers, loads = out["answers"], out["loads"]
    # Q6 over the SF0.005 test catalog, as every engine mode answered it
    # before its subsystem moved to first use.
    assert set(answers.values()) == {answers["plain"]}
    assert answers["plain"] == "[(567893.9033,)]"
    assert "repro.sharing.manager" in loads["sharing"]
    assert "repro.predict.service" in loads["prediction"]
    assert {"repro.workload.session", "repro.workload.admission"} <= set(loads["session"])
    assert "repro.script.executor" in loads["script"]
