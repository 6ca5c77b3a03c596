"""repro.predict: learned per-stage demand profiles (DESIGN.md §16).

Accumulates per-stage resource traces from finished queries under
query-*template* fingerprints (plan fingerprints with literals
parameterized out) and serves time-varying demand predictions back to
the engine: pre-granted DOP/memory at admission, dominant-remaining-
resource placement, P(deadline miss) for SLO admission, and a
reprovision trigger that escalates to the reactive tuner when a
prediction under-shoots by more than the configured error bound.

Enable with ``EngineConfig().with_prediction()``; the user surface is
``engine.predict(sql)`` -> :class:`Prediction` and
``QueryHandle.prediction`` / ``QueryHandle.prediction_error``.
"""

from .history import HistoryStore
from .profile import Prediction, StageDemand
from .service import DemandPredictor, template_fingerprint

__all__ = [
    "DemandPredictor",
    "HistoryStore",
    "Prediction",
    "StageDemand",
    "template_fingerprint",
]
