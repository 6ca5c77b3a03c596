#!/usr/bin/env python
"""Python calls per query: the host cost that repeats exactly.

    PYTHONPATH=src python tools/call_count.py 0.05 Q5 Q9 Q18

Each named TPC-H text runs under ``cProfile`` on a fresh engine over one
catalog of the given scale — once to warm the plan cache and the
dictionaries' lazy tables, then twice counted.  Prints the calls of each
text and their mean per query; exits 1 if the two counted passes differ.
"""

import cProfile
import pstats
import sys

from repro import AccordionEngine, Catalog, TPCH_QUERIES


def calls(catalog, name):
    profile = cProfile.Profile()
    profile.runcall(AccordionEngine(catalog).execute, TPCH_QUERIES[name])
    return pstats.Stats(profile).total_calls


if __name__ == "__main__":
    names, catalog = sys.argv[2:], Catalog.tpch(scale=float(sys.argv[1]))
    warm, first, second = ([calls(catalog, n) for n in names] for _ in range(3))
    print(*(f"{n}: {c} calls" for n, c in zip(names, second)), sep="\n")
    print(f"calls per query: {sum(second) / len(names):.0f}")
    sys.exit(first != second)
