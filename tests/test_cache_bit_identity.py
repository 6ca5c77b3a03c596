"""The host-performance contract: caches change wall clock, nothing else.

The plan cache and the dataset cache are pure host-side accelerations.
This test runs the same query under a node crash and a seeded
runtime-tuning schedule with every cache enabled vs every cache
disabled, and requires the *simulated* execution to be bit-identical:
same answer rows, same virtual completion time, same number of kernel
events processed.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import TEST_SEED, norm_rows, slow_engine

from repro import Plan, NodeCrash
from repro.errors import TuningRejected
from repro.data import Catalog
from repro.data.tpch.dataset_cache import clear_dataset_cache
from repro.data.tpch.queries import QUERIES
from repro.sql.compiler import clear_compile_cache

MAX_EVENTS = 5_000_000

#: Virtual times at which the seeded tuning schedule acts.
TUNING_TIMES = (0.5, 1.0, 1.8)


def run_instrumented(sql: str, caches: bool):
    """One full run; returns everything the simulation determines."""
    catalog = Catalog.tpch(scale=0.005, seed=TEST_SEED, dataset_cache=caches)
    engine = slow_engine(catalog, plan_cache=caches)
    engine.apply(
        Plan(seed=11, events=(NodeCrash(at=2.2, node="compute1"),))
    )
    handle = engine.submit(sql)
    rng = np.random.default_rng(99)
    actions = []
    for at in TUNING_TIMES:
        engine.run_until(at)
        stage = int(rng.integers(1, 4))
        dop = int(rng.integers(1, 6))
        try:
            outcome = handle.tuning.ap(stage, dop).accepted
        except TuningRejected as rejected:
            outcome = f"rejected: {rejected}"
        actions.append((at, stage, dop, outcome))
    engine.run_until_done(handle, max_events=MAX_EVENTS)
    return {
        "rows": norm_rows(handle.result().rows),
        "virtual_time": engine.now,
        "events": engine.kernel.events_processed,
        "actions": actions,
        "faults": len(engine.decisions.of(kind="inject")),
    }


@pytest.mark.parametrize("name", ["Q3", "Q5"])
def test_caches_are_bit_inert(name):
    clear_compile_cache()
    clear_dataset_cache()
    cold = run_instrumented(QUERIES[name], caches=True)
    # Second cached run: plan cache and dataset memo are now warm.
    warm = run_instrumented(QUERIES[name], caches=True)
    bare = run_instrumented(QUERIES[name], caches=False)
    assert cold == warm == bare
    assert cold["rows"]  # the query survived the crash and answered
    assert cold["faults"] >= 1  # the crash actually fired
