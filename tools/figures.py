#!/usr/bin/env python3
"""Render the paper's figure tables in EXPERIMENTS.md from FIGURES.json.

``PYTHONPATH=src python -m pytest benchmarks -q`` writes FIGURES.json,
one row per reported number: figure, case, metric, the paper's value (or
null), the measured value, its unit, and whether the test's shape
assertions passed.  EXPERIMENTS.md holds one marker-delimited block per
figure::

    <!-- figure: Figure 22 -->
    ...
    <!-- end -->

and this tool fills each with that figure's table: a row per case, a
column per metric, and a ``paper`` column beside each metric that has a
paper value.  Usage::

    python tools/figures.py          # rewrite the blocks in EXPERIMENTS.md
    python tools/figures.py --check  # exit 1 when a block differs from it

Standard library only.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIGURES = ROOT / "FIGURES.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BLOCK = re.compile(r"^(<!-- figure: ([^\n]+) -->\n)(.*?)^(<!-- end -->)", re.M | re.S)


def natural(text: str) -> list:
    """Sort key that orders ``Q2`` before ``Q10``."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", text)]


def dump(rows: list[dict]) -> str:
    """The canonical FIGURES.json text: rows sorted by figure and case (a
    case's metrics keep the order they were recorded in), one per line."""
    rows = sorted(rows, key=lambda r: (natural(r["figure"]), natural(r["case"])))
    lines = ",\n".join(json.dumps(r, sort_keys=True, ensure_ascii=False) for r in rows)
    return f"[\n{lines}\n]\n"


def pivot(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    """One figure's rows as (headers, body): case x metric."""
    units = {}
    cells = {}
    for row in rows:
        units.setdefault(row["metric"], row["unit"])
        cells[row["case"], row["metric"]] = row
    quoted = {metric for (_, metric), row in cells.items() if row["paper"] is not None}
    headers = ["case"]
    for metric, unit in units.items():
        headers.append(f"{metric} ({unit})" if unit else metric)
        if metric in quoted:
            headers.append("paper")
    body = []
    for case in dict.fromkeys(row["case"] for row in rows):
        line = [case]
        for metric in units:
            row = cells.get((case, metric), {})
            line.append(str(row.get("measured", "–")))
            if metric in quoted:
                paper = row.get("paper")
                line.append("–" if paper is None else str(paper))
        body.append(line)
    return headers, body


def markdown(headers: list[str], body: list[list[str]]) -> str:
    rule = "|---" * len(headers) + "|\n"
    lines = ["| " + " | ".join(line) + " |\n" for line in (headers, *body)]
    return lines[0] + rule + "".join(lines[1:])


def render(text: str, rows: list[dict]) -> str:
    """``text`` with every figure block refilled from ``rows``."""
    by_figure: dict[str, list[dict]] = {}
    for row in rows:
        by_figure.setdefault(row["figure"], []).append(row)
    named = [match[2] for match in BLOCK.finditer(text)]
    unknown = sorted(set(named) - set(by_figure))
    unplaced = sorted(set(by_figure) - set(named))
    if unknown or unplaced:
        raise SystemExit(
            f"figures: blocks without rows {unknown}; figures without a block {unplaced}"
        )
    return BLOCK.sub(
        lambda m: m[1] + markdown(*pivot(by_figure[m[2]])) + m[4], text
    )


def main(argv: list[str]) -> int:
    text = EXPERIMENTS.read_text(encoding="utf-8")
    rendered = render(text, json.loads(FIGURES.read_text(encoding="utf-8")))
    if argv == ["--check"]:
        if rendered != text:
            print(
                "figures: EXPERIMENTS.md's figure blocks differ from FIGURES.json; "
                "run `python tools/figures.py`"
            )
            return 1
        return 0
    EXPERIMENTS.write_text(rendered, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
