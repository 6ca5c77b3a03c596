#!/usr/bin/env python
"""Executable lines of ``src/repro`` that a run never reaches.

    PYTHONPATH=src python tools/unreached.py [--into hits.json] pytest -q tests/test_buffers.py
    PYTHONPATH=src python tools/unreached.py [--into hits.json] examples/quickstart.py

Runs a pytest selection or a script under ``sys.settrace`` and prints, per
function and then per package, the lines of ``code.co_lines()`` that saw no
event (``if TYPE_CHECKING:`` bodies are not counted).  ``--into`` first merges
the lines reached into a JSON file, so several runs report their union.
Stdlib only; not a CI gate — tier-1 under the tracer takes minutes.
"""
import ast, collections, contextlib, json, runpy, sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
hit = collections.defaultdict(set)

def tracer(frame, event, arg):
    """Global and local trace function at once: a frame of ``src/repro`` is followed."""
    if frame.f_code.co_filename.startswith(str(SRC)):
        hit[frame.f_code.co_filename].add(frame.f_lineno)
        return tracer

def functions(code, skipped):
    """(qualname, own executable lines) of a code object and of those nested in it."""
    nested = [c for c in code.co_consts if hasattr(c, "co_lines")]
    inner = {line for c in nested for _, _, line in c.co_lines()}
    yield code.co_qualname, {line for _, _, line in code.co_lines() if line} - inner - skipped
    for c in nested:
        yield from functions(c, skipped)

if __name__ == "__main__":
    argv, into = sys.argv[1:], None
    if argv[0] == "--into":
        into, argv = Path(argv[1]), argv[2:]
    sys.settrace(tracer)
    with contextlib.suppress(SystemExit):
        if argv[0] == "pytest":
            __import__("pytest").main(argv[1:])
        else:
            sys.argv = argv
            runpy.run_path(argv[0], run_name="__main__")
    sys.settrace(None)
    if into is not None:
        for name, lines in (json.loads(into.read_text()) if into.exists() else {}).items():
            hit[name].update(lines)
        into.write_text(json.dumps({name: sorted(lines) for name, lines in hit.items()}))
    table = collections.defaultdict(collections.Counter)
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        skipped = {line for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
                   for line in range(node.body[0].lineno, node.body[-1].end_lineno + 1)}
        for name, lines in functions(compile(source, str(path), "exec"), skipped):
            missed = sorted(lines - hit[str(path)])
            if missed:
                print(f"{path.relative_to(SRC)}::{name}: {missed}")
            for package in (path.relative_to(SRC).parts[0], "src/repro"):
                table[package].update(lines=len(lines), unreached=len(missed))
    for package, row in sorted(table.items(), key=lambda kv: kv[0] == "src/repro"):
        print(f"{package:14} {row['lines']:6} lines {row['unreached']:5} unreached")
