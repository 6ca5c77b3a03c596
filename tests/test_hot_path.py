"""Hot-path guard: the benchmark queries never leave the dictionary encoding.

``DictColumn`` keeps code that was not taught about it working through
``decode()`` / ``__array__`` — one python object per cell, the cost the
encoding exists to remove — and ``Page`` re-encodes python values an
operator hands it (``DictColumn.from_values``).  Both are legitimate at
the edges (ingestion, string functions without a dictionary form) and
both are silent, so an operator that falls back to them would give the
speed-up back without failing anything.  This test makes it fail: from
``engine.submit`` to the materialised ``handle.result()`` the scan/agg
and join/shuffle benchmark templates decode and re-encode nothing.
"""

import numpy as np
import pytest

from conftest import make_engine

from repro import TPCH_QUERIES
from repro.pages import DictColumn


@pytest.mark.parametrize("name", ["Q1", "Q6", "Q5", "Q9", "Q18"])
def test_benchmark_queries_never_decode_or_reencode(catalog, monkeypatch, name):
    calls = {"decode": 0, "from_values": 0}
    decode, from_values = DictColumn.decode, DictColumn.from_values.__func__

    def counting_decode(self):
        calls["decode"] += 1
        return decode(self)

    def counting_from_values(cls, values):
        calls["from_values"] += 1
        return from_values(cls, values)

    engine = make_engine(catalog)
    monkeypatch.setattr(DictColumn, "decode", counting_decode)
    monkeypatch.setattr(DictColumn, "from_values", classmethod(counting_from_values))
    handle = engine.submit(TPCH_QUERIES[name])
    result = handle.result()
    monkeypatch.undo()

    assert calls == {"decode": 0, "from_values": 0}
    assert result.rows, "the query must exercise its string columns"
    # The counters do count: the escape hatch and ingestion both register.
    monkeypatch.setattr(DictColumn, "decode", counting_decode)
    monkeypatch.setattr(DictColumn, "from_values", classmethod(counting_from_values))
    np.asarray(DictColumn.from_values(["a"]))
    assert calls == {"decode": 1, "from_values": 1}
