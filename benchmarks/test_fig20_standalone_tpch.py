"""Figure 20: standalone TPC-H benchmark — Accordion vs Presto vs
Prestissimo on a single node.

Paper shape: Accordion tracks Prestissimo closely on every query and both
clearly beat Presto (the C++-vs-Java gap); all three return identical
results.
"""

from repro import STANDALONE_BENCHMARK, standalone_engine

SCALE = 0.005
MODES = ("accordion", "presto", "prestissimo")


def _run_all():
    times: dict[str, dict[str, float]] = {m: {} for m in MODES}
    rows: dict[str, dict[str, list]] = {m: {} for m in MODES}
    for mode in MODES:
        engine = standalone_engine(mode, scale=SCALE)
        for name, sql in STANDALONE_BENCHMARK.items():
            result = engine.execute(sql, max_virtual_seconds=1e6)
            times[mode][name] = result.elapsed_seconds
            rows[mode][name] = sorted(map(repr, result.rows))
    return times, rows


def test_fig20_standalone_tpch(record):
    times, rows = _run_all()
    for name in STANDALONE_BENCHMARK:
        for mode in MODES:
            record("Figure 20", name, mode.capitalize(), times[mode][name])
        ratio = times["presto"][name] / times["accordion"][name]
        record("Figure 20", name, "Presto/Accordion", ratio, "×")

    for name in STANDALONE_BENCHMARK:
        # Paper shape 1: Presto is distinctly slower than Accordion.
        assert times["presto"][name] > 1.3 * times["accordion"][name], name
        # Paper shape 2: Accordion is comparable to Prestissimo.
        ratio = times["accordion"][name] / times["prestissimo"][name]
        assert 0.6 < ratio < 1.6, (name, ratio)
        # All engines agree on the answers.
        assert (
            rows["accordion"][name] == rows["presto"][name] == rows["prestissimo"][name]
        ), name
