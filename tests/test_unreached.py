"""``tools/unreached.py`` runs a script the way ``python script.py`` does."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unreached.py"


def test_a_script_imports_its_sibling_under_the_tool(tmp_path):
    (tmp_path / "helper.py").write_text("GREETING = 'hello from the sibling'\n")
    script = tmp_path / "main.py"
    script.write_text("import helper\nprint(helper.GREETING)\n")
    done = subprocess.run(
        [sys.executable, str(TOOL), str(script)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert "hello from the sibling" in done.stdout
    assert "src/repro" in done.stdout  # the per-package table follows
