"""Automatic DOP tuning (paper Section 5)."""

from .bottleneck import Bottleneck, find_bottlenecks
from .collector import RuntimeInfoCollector, Snapshot, StageSample
from .filter import TuningRequestFilter
from .planner import DopPlan, DopPlanner
from .whatif import WhatIfEstimate, WhatIfService
from .progress import remaining_seconds
from .service import ElasticQuery
from .tuner import DopAutoTuner, TuningUnit, tuning_units

__all__ = [
    "Bottleneck",
    "DopAutoTuner",
    "DopPlan",
    "DopPlanner",
    "ElasticQuery",
    "RuntimeInfoCollector",
    "Snapshot",
    "StageSample",
    "TuningRequestFilter",
    "TuningUnit",
    "WhatIfEstimate",
    "WhatIfService",
    "find_bottlenecks",
    "remaining_seconds",
    "tuning_units",
]
