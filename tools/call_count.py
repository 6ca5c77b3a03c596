#!/usr/bin/env python
"""Python calls per query: the host cost that repeats exactly.

    PYTHONPATH=src python tools/call_count.py 0.05 Q5 Q9 Q18

Each named TPC-H text runs under ``cProfile`` on a fresh engine over one
catalog of the given scale — once to warm the plan cache and the
dictionaries' lazy tables, then twice counted.  Then the same for the
elasticity path: Q3 and Q5 at SF0.01 with 1000x costs and 256-row pages
(the ``elastic_tuned`` benchmark's engine), where the host time goes to
the simulator and the buffers between the operators.  Prints the calls of
each text, their mean per query and per simulated event; exits 1 if two
counted passes differ.
"""

import cProfile
import pstats
import sys

from repro import AccordionEngine, Catalog, CostModel, EngineConfig, TPCH_QUERIES

ELASTIC_SCALE, ELASTIC_QUERIES = 0.01, ("Q3", "Q5")
ELASTIC_CONFIG = EngineConfig(cost=CostModel().scaled(1000.0), page_row_limit=256)


def calls(catalog, name, config=None):
    """(Python calls, sim events) of one execution of ``name``."""
    engine = AccordionEngine(catalog, config=config)
    profile = cProfile.Profile()
    profile.runcall(engine.execute, TPCH_QUERIES[name])
    return pstats.Stats(profile).total_calls, engine.kernel.events_processed


def count(catalog, names, config=None) -> bool:
    """Print one set's counts; True when its two counted passes agree."""
    warm, first, second = ([calls(catalog, n, config) for n in names] for _ in range(3))
    print(*(f"{n}: {c} calls, {e} events" for n, (c, e) in zip(names, second)), sep="\n")
    total_calls = sum(c for c, _ in second)
    print(f"calls per query: {total_calls / len(names):.0f}")
    print(f"calls per sim event: {total_calls / sum(e for _, e in second):.2f}")
    return first == second


if __name__ == "__main__":
    names, catalog = sys.argv[2:], Catalog.tpch(scale=float(sys.argv[1]))
    repeat = count(catalog, names)
    print(f"-- elasticity path: SF{ELASTIC_SCALE}, 1000x costs, 256-row pages")
    repeat &= count(Catalog.tpch(scale=ELASTIC_SCALE), ELASTIC_QUERIES, ELASTIC_CONFIG)
    sys.exit(not repeat)
