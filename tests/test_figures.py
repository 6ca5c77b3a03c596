"""FIGURES.json and EXPERIMENTS.md's figure tables agree (``tools/figures.py``).

The figure suite (``pytest benchmarks``) writes FIGURES.json; these
checks read the committed file and run none of the suite.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import figures  # noqa: E402

TEXT = figures.FIGURES.read_text(encoding="utf-8")
ROWS = json.loads(TEXT)


def test_figures_json_is_canonical():
    assert figures.dump(ROWS) == TEXT


def test_each_figure_case_metric_is_one_row():
    keys = [(r["figure"], r["case"], r["metric"]) for r in ROWS]
    assert len(keys) == len(set(keys))


def test_every_row_passed_its_shape_assertions():
    assert [r for r in ROWS if not r["passed"]] == []


def test_experiments_tables_are_rendered_from_figures_json():
    text = figures.EXPERIMENTS.read_text(encoding="utf-8")
    assert figures.render(text, ROWS) == text


def test_a_hand_edited_cell_is_caught():
    text = figures.EXPERIMENTS.read_text(encoding="utf-8")
    row = next(r for r in ROWS if r["figure"] == "Figure 28")
    cell = f"| {row['case']} | {row['measured']} |"
    assert cell in text
    assert figures.render(text.replace(cell, f"| {row['case']} | 0.01 |"), ROWS) == text


def test_a_figure_without_a_block_is_refused():
    with pytest.raises(SystemExit, match="figures without a block"):
        figures.render("", ROWS)
