"""Driver step variants against a golden recorded before they existed.

A driver binds one step function to its shape when it is built
(DESIGN.md §10.1).  ``driver_shapes_golden.json`` was recorded with the
one generic quantum the step functions replaced: for every TPC-H text
and every ``SQL_SHAPES`` entry, under the default config and the
elasticity config (1000x costs, 256-row pages), each plain, traced and
profiled, the simulated events, ``repr`` of the virtual elapsed time and
a digest of the rows.  Every entry must still match it, and every step
variant the binder can choose must serve at least one entry.

    PYTHONPATH=src python tests/test_driver_shapes.py > tests/driver_shapes_golden.json

re-records the golden (only at a commit whose answers and clocks are the
reference).
"""

import hashlib
import json
from pathlib import Path

from conftest import TEST_SCALE, TEST_SEED

from repro import AccordionEngine, CostModel, EngineConfig
from repro.data.tpch.queries import QUERIES
from repro.exec import driver
from test_engine_queries import SQL_SHAPES

GOLDEN = Path(__file__).with_name("driver_shapes_golden.json")
CONFIGS = {
    "default": EngineConfig(),
    "elastic": EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256),
}
MODES = {"plain": None, "traced": {}, "profiled": {"profiling": True}}
TEXTS = {**QUERIES, **SQL_SHAPES}
#: Every step the binder chooses from, as ``step.shape``: the chain (no
#: transform or one inline, longer ones through ``Driver._run_chain``) and
#: the mode; profiled drivers always take the chain.
STEP_VARIANTS = {
    ("bare", "plain"),
    ("bare", "traced"),
    ("one", "plain"),
    ("one", "traced"),
    ("chain", "plain"),
    ("chain", "traced"),
    ("chain", "profiled"),
}


def observe(catalog, text: str, config: str, mode: str) -> dict:
    """One fresh engine runs one text: its events, elapsed and rows."""
    engine_config = CONFIGS[config]
    if MODES[mode] is not None:
        engine_config = engine_config.with_tracing(**MODES[mode])
    engine = AccordionEngine(catalog, config=engine_config)
    result = engine.execute(TEXTS[text], max_virtual_seconds=1e5)
    return {
        "events": engine.kernel.events_processed,
        "elapsed": repr(result.elapsed_seconds),
        "rows": hashlib.sha256(repr(result.rows).encode()).hexdigest()[:16],
    }


def keys():
    return [(t, c, m) for t in sorted(TEXTS) for c in CONFIGS for m in MODES]


def test_every_text_keeps_its_events_clock_and_rows_in_every_step(catalog, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted("/".join(key) for key in keys())
    bound, bind = set(), driver._bind_step

    def recording_bind(d):
        step = bind(d)
        bound.add(step.shape)
        return step

    monkeypatch.setattr(driver, "_bind_step", recording_bind)
    moved = [
        "/".join(key) for key in keys() if observe(catalog, *key) != golden["/".join(key)]
    ]
    assert not moved
    assert bound == STEP_VARIANTS


if __name__ == "__main__":  # record the golden (run this at the reference commit)
    from repro.data import Catalog

    catalog = Catalog.tpch(scale=TEST_SCALE, seed=TEST_SEED)
    print(json.dumps({"/".join(k): observe(catalog, *k) for k in keys()}, indent=1))
