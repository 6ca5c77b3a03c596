"""The public-API import lint (tools/api_lint.py) as a tier-1 test:
examples/ and benchmarks/ must only import from the top-level ``repro``
package, and the linter must actually catch violations.  Also: every
argparse script answers ``--help``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


ARGPARSE_SCRIPTS = [
    "benchmarks/perf/harness.py",
    *sorted(p.relative_to(REPO).as_posix() for p in (REPO / "tools").glob("*_smoke.py")),
]


@pytest.mark.parametrize("script", ARGPARSE_SCRIPTS)
def test_script_help_exits_zero(script):
    """argparse renders help strings with ``%``-formatting, so a bare
    ``%`` in one crashes ``--help`` only when somebody asks for it."""
    result = subprocess.run(
        [sys.executable, str(REPO / script), "--help"],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout
