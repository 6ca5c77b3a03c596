"""Counters/gauges registry for the obs layer.

Absorbs the ad-hoc counters scattered through the engine (RPC totals,
recovery stats, fault-injector history, kernel event counts) behind one
``MetricsRegistry``.  Counters are plain monotonically increasing values
owned by the registry; gauges are callables sampled lazily at
``snapshot()`` time, so registering one costs nothing on the hot path.

A gauge callable may return a scalar or a ``dict`` — dict results are
flattened into dotted keys (``recovery.restarts``), which lets existing
``stats()``-style helpers plug in unchanged.
"""

from __future__ import annotations


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


class MetricsRegistry:
    """Central registry of counters and lazily sampled gauges."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        """Get (or create) the counter with this name."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, fn) -> None:
        """Register ``fn`` to be sampled at snapshot time under ``name``.

        ``fn`` takes no arguments and returns a scalar or a dict of
        scalars (flattened as ``name.key``).  What ``fn`` raises,
        ``snapshot()`` raises: a broken gauge is a bug, not a missing
        key."""
        self._gauges[name] = fn

    def snapshot(self) -> dict:
        """Sample everything into one flat ``{name: value}`` dict."""
        out: dict = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, fn in self._gauges.items():
            value = fn()
            if isinstance(value, dict):
                for key, sub in value.items():
                    out[f"{name}.{key}"] = sub
            else:
                out[name] = value
        return out
