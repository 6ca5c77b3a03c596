#!/usr/bin/env python3
"""Count code lines under a path: the figure CHANGES.md entries quote.

A code line is a physical line that carries at least one token other
than a comment or a docstring (blank lines do not count).  Usage:
``python tools/code_lines.py src/repro``; ``--surface`` prints instead the
three API-surface counts the same entries quote.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def surface() -> str:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro
    import repro.config
    from repro.tree import field_names

    classes = [c for c in vars(repro.config).values() if isinstance(c, type)]
    config_tree = sum(len(field_names(c) or ()) for c in classes)
    return (
        f"config-tree fields: {config_tree}, QueryOptions fields: "
        f"{len(field_names(repro.QueryOptions))}, repro.__all__: {len(repro.__all__)}"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--surface"]:
        print(surface())
    else:
        root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        print(sum(code_lines(path.read_text(encoding="utf-8")) for path in files))
