"""Host-speed calibration: how slow is this machine *right now*?

The benchmark host is a 2-vCPU virtual machine whose speed drifts by
10-60 % for seconds to minutes at a time (noisy neighbours; ``/proc/stat``
shows no steal time, so it is contention inside the core and the caches,
not lost time slices).  Uncorrected, the median round wall of identical
work spreads by 0.11-0.22 of its median within ten runs (0.02-0.08
corrected; ``hostcal_spread.json``), too close to the widest bound
``BENCHMARK.json`` may declare (0.25) to tell a change from the weather.
So every timed quantity is divided by the host's slowdown measured right
beside it:

    slowdown = kernel() / CAL_REFERENCE_S

The kernel runs before every measured round, outside the round's timer,
and once after the last; a round is corrected by the mean of the two
samples on either side of it.

What the kernel is made of matters, because contention does not slow all
code alike.  ``hostcal_spread.json`` (``components``) keeps thirty runs
with five candidate components timed separately next to every round.
The 13 ms interpreter-loop-and-sort kernel this file had before left the
median round wall spreading by 0.137 on ``elastic_tuned`` (interpreter
and small-array work) and 0.038 on ``scan_agg`` (big-array work);
attribute / dict / heap work alone did the opposite (0.087 and 0.126).
No single component was best on more than one of the three workloads.
The engine mixes all of them, so the kernel does too, about 6 ms each,
and reports the geometric mean of the five times, so that each
component's *relative* slowdown counts equally (0.105, 0.042 and 0.045 on
the same runs, against 0.244, 0.130 and 0.137 uncorrected):

* an interpreter loop over integers (bytecode dispatch);
* method calls, attribute and dict access, a small heap (what the
  simulation kernel and the scheduler do);
* arithmetic, compare and mask on 256-element arrays (numpy call
  overhead: small pages);
* gather + sort of a 2.4 MB array (SIMD compute in cache);
* random gather from 16 MB (memory latency, shared-cache pollution).

It allocates nothing the garbage collector tracks, so its time depends on
the host and not on what the workload has left on the heap.

``CAL_REFERENCE_S`` is the kernel's reading on the quiet reference host,
so a corrected second reads as a second there.  It is only a scale: both
sides of a comparison are divided by the same number, and only their
ratio is ever judged.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

import numpy as np

#: The kernel's reading on the quiet reference host (2-core, 2.1 GHz Xeon VM).
CAL_REFERENCE_S = 0.0060

_VALUES = np.random.default_rng(0).random(300_000)
_ORDER = np.random.default_rng(1).permutation(300_000)
_FAR = np.random.default_rng(2).integers(0, 255, 16_000_000, dtype=np.uint8)
_FAR_INDEX = np.random.default_rng(3).integers(0, 16_000_000, 800_000)
_SMALL = [np.random.default_rng(4).random(256) for _ in range(8)]
_KEYS = [f"k{i}" for i in range(512)]
_SLOTS = {key: index for index, key in enumerate(_KEYS)}


class _Node:
    __slots__ = ("base",)

    def __init__(self) -> None:
        self.base = 1

    def shifted(self, value: int) -> int:
        return self.base + value


_NODE = _Node()
_HEAP: list[int] = []


def _interpreter() -> None:
    total = 0
    for value in range(100_000):
        total += value * value


def _objects() -> None:
    node, slots, heap, total = _NODE, _SLOTS, _HEAP, 0
    for _ in range(150):
        for key in _KEYS:
            total += node.shifted(slots[key])
        heapq.heappush(heap, total & 1023)
    while heap:
        heapq.heappop(heap)


def _small_arrays() -> None:
    for _ in range(200):
        for page in _SMALL:
            scaled = page * 2.0 + 1.0
            scaled[scaled > 1.5]


def _sort() -> None:
    for _ in range(2):
        _VALUES[_ORDER].sort()


def _far_gather() -> None:
    for _ in range(2):
        _FAR[_FAR_INDEX]


COMPONENTS = (_interpreter, _objects, _small_arrays, _sort, _far_gather)


def kernel() -> float:
    """Run the fixed kernel once; returns the geometric mean of its
    components' wall seconds."""
    log_sum = 0.0
    for component in COMPONENTS:
        start = time.perf_counter()
        component()
        log_sum += math.log(time.perf_counter() - start)
    return math.exp(log_sum / len(COMPONENTS))


def slowdown(samples: list[float]) -> float:
    """Host slowdown from kernel samples (1.0 = the quiet reference)."""
    return statistics.median(samples) / CAL_REFERENCE_S
