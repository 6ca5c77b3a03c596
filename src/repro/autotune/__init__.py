"""Automatic DOP tuning (paper Section 5).

The runtime info collector and the estimates read from it are
:class:`repro.obs.throughput.Sampler`; this package holds the tuner that
checks and applies requests, the DOP planning module, and the per-query
handle that ties the two together.
"""

from ..cluster.stage import StageSample
from ..obs.throughput import Bottleneck, Snapshot, WhatIfEstimate
from .planner import DopPlan, DopPlanner
from .service import ElasticQuery
from .tuner import DopAutoTuner, TuningUnit, tuning_units

__all__ = [
    "Bottleneck",
    "DopAutoTuner",
    "DopPlan",
    "DopPlanner",
    "ElasticQuery",
    "Snapshot",
    "StageSample",
    "TuningUnit",
    "WhatIfEstimate",
    "tuning_units",
]
