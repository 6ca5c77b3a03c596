"""DemandPredictor: the engine-side prediction service (DESIGN.md §16).

Acts at two steps of the query lifecycle (``AccordionEngine._submit`` /
``_start``), both inert when the template has no history:

1. **predict** (:meth:`DemandPredictor.pregrant`, session submissions):
   rewrite the query's options with pre-granted per-stage DOPs sized so
   predicted CPU work finishes within half the deadline (or half the
   predicted runtime), pre-size the memory budget from predicted peak,
   or report the P(deadline miss) that makes admission reject it.
2. **start** (:meth:`DemandPredictor.attach`): attach the template's
   :class:`Prediction` to the new ``QueryExecution`` *before* initial
   placement — the scheduler packs predicted stages by
   dominant-remaining-resource from it — register the completion
   observer that records the run into the history store, and arm the
   reprovision trigger.

The reprovision trigger is one cancellable event per predicted query at
``submitted_at + runtime * (1 + ERROR_BOUND)``: if the query is still
running then, the prediction under-shot by more than the bound and the
predictor escalates to the *reactive* path — a what-if-guarded DOP bump
through the standard tuner, arbiter included.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import replace
from typing import TYPE_CHECKING

from ..errors import ExecutionError, TuningRejected
from ..plan.cache import prepare
from .history import HistoryStore
from .profile import Prediction

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution, QueryOptions
    from ..engine import AccordionEngine
    from ..data import Catalog
    from ..handle import QueryHandle

__all__ = ["DemandPredictor", "template_fingerprint"]

#: Memory pre-grants never go below this (tiny queries still need room
#: for pages in flight and accounting slack).
MIN_MEMORY_PREGRANT = 64 * 1024 * 1024
#: Memory pre-grant = this x predicted peak, used only when the session
#: declares no budget.
MEMORY_HEADROOM = 2.0
#: Pre-grant sizing target: each stage gets enough DOP to finish its
#: predicted CPU work within this fraction of the predicted runtime (or
#: of the deadline, when the deadline is tighter).
PREGRANT_TARGET_FRACTION = 0.25
#: Cap on any pre-granted per-stage DOP.
PREGRANT_MAX_STAGE_DOP = 16
#: Relative runtime-prediction error tolerated before the reprovision
#: trigger fires (0.5 = fire once the query has run 50% past its
#: predicted runtime without finishing).
ERROR_BOUND = 0.5


def template_fingerprint(
    catalog: "Catalog", sql: str, options: "QueryOptions"
) -> str:
    """Stable hex template id for ``sql`` under ``options``."""
    return prepare(catalog, sql).template(options.shaping())


class DemandPredictor:
    def __init__(self, engine: "AccordionEngine"):
        self.engine = engine
        self.kernel = engine.kernel
        self.config = engine.config.prediction
        self.store = HistoryStore(self.config.history_dir)
        self.decisions = self.kernel.decisions
        #: The log mark of each template's first recorded run, ascending:
        #: the templates a window added, however many of its decisions
        #: were freed since.
        self._first_runs: list[int] = []

    # -- templates ----------------------------------------------------------
    def _predict(self, template: str, sub=None) -> Prediction | None:
        prediction = self.store.predict(template)
        if prediction is not None:
            self.decisions.record(
                "predict", "served", tenant=sub and sub.tenant, seq=sub and sub.seq,
                template=template, samples=prediction.samples,
                runtime=prediction.runtime,
            )
        return prediction

    def predict_sql(
        self, sql: str, options: "QueryOptions | None" = None
    ) -> Prediction | None:
        """Prediction for ``sql`` from accumulated history, or None."""
        from ..cluster.coordinator import QueryOptions

        prepared = self.engine.coordinator.prepare(sql)
        return self._predict(prepared.template((options or QueryOptions()).shaping()))

    # -- the start step -----------------------------------------------------
    def attach(self, query: "QueryExecution", template: str) -> None:
        """Runs before the query's initial placement.  The history is
        read as of now: a query that waited in the admission queue (or a
        fold window) sees the runs recorded meanwhile."""
        query.prediction_template = template
        prediction = self.store.predict(template)
        if prediction is not None:
            query.prediction = prediction
            self._arm_reprovision(query, prediction)
        query.on_done(self._observe)

    def _observe(self, query: "QueryExecution") -> None:
        if not query.succeeded:
            return
        runtime = query.finished_at - query.submitted_at
        prediction = query.prediction
        if prediction is not None and prediction.runtime > 0:
            query.prediction_error = (
                abs(runtime - prediction.runtime) / prediction.runtime
            )
        stages = []
        for sid in sorted(query.stages):
            stage = query.stages[sid]
            window = stage.time_window() or (0.0, runtime)
            stages.append({
                "stage": sid,
                "cpu_seconds": stage.cpu_seconds(),
                "quanta": stage.quanta(),
                "peak_memory_bytes": stage.peak_tracked_bytes(),
                "exchange_bytes": stage.bytes_out(),
                "rows_out": stage.rows_out(),
                "tasks": len(stage.tasks),
                "start": window[0],
                "end": window[1],
            })
        runs = self.store.record(query.prediction_template, {
            "runtime": runtime,
            "peak_query_bytes": query.memory.peak_bytes,
            "stages": stages,
        })
        if runs == 1:
            self._first_runs.append(len(self.decisions))
        self.decisions.record(
            "history", "recorded", query_id=query.id,
            template=query.prediction_template, runs=runs, runtime=runtime,
            error=query.prediction_error,
        )

    # -- reprovision trigger ------------------------------------------------
    def _arm_reprovision(
        self, query: "QueryExecution", prediction: Prediction
    ) -> None:
        fire_in = prediction.runtime * (1.0 + ERROR_BOUND)
        if fire_in <= 0:
            return
        # Weak: the cancelled event stays queued until its time comes, and
        # must not keep the retired query alive until then.
        ref = weakref.ref(query)
        event = self.kernel.schedule(fire_in, lambda: self._check_reprovision(ref()))
        query.on_done(lambda _q, e=event: e.cancel())

    def _check_reprovision(self, query: "QueryExecution | None") -> None:
        """The query outran its prediction by more than the error bound:
        hand control back to the reactive tuner with a DOP escalation."""
        if query is None or query.finished:
            return
        self.decisions.record(
            "predict", "reprovision", query_id=query.id,
            predicted=query.prediction.runtime, error_bound=ERROR_BOUND,
        )
        try:
            elastic = self.engine._elastic_for(query)
        except ExecutionError:
            return
        for unit in elastic.units():
            stage = query.stages[unit.knob_stage]
            if stage.finished:
                continue
            target = min(
                elastic.tuner.max_stage_dop,
                max(stage.stage_dop + 1, stage.stage_dop * 2),
            )
            if target <= stage.stage_dop:
                continue
            try:
                elastic.ap(unit.knob_stage, target)
            except TuningRejected:
                continue

    # -- the predict step ---------------------------------------------------
    def pregrant(self, sub: "QueryHandle") -> float | None:
        """Admission-time decision for a session submission.  Returns the
        deadline-miss probability when it exceeds the configured bound
        (the caller rejects); otherwise rewrites ``sub.options`` with any
        pre-granted per-stage DOPs, pre-sizes an undeclared memory grant
        from the predicted peak, and returns None."""
        prediction = sub.admission_prediction = self._predict(sub.template, sub)
        if prediction is None:
            return None
        bound = self.config.max_miss_probability
        if sub.deadline is not None and bound is not None:
            miss = prediction.miss_probability(sub.deadline)
            if miss > bound:
                self.decisions.record(
                    "predict", "slo_reject", tenant=sub.tenant, seq=sub.seq,
                    miss_probability=miss, deadline=sub.deadline,
                    runtime=prediction.runtime, std=prediction.std,
                )
                return miss
        options = self.pregrant_options(sub.options, prediction, sub.deadline)
        if options is not sub.options:
            sub.options = options
            self.decisions.record(
                "predict", "pregrant", tenant=sub.tenant, seq=sub.seq,
                stage_dops=options.stage_dops,
            )
        if sub.memory_bytes is None:
            sub.memory_bytes = max(
                MIN_MEMORY_PREGRANT,
                int(prediction.peak_memory_bytes * MEMORY_HEADROOM),
            )
        return None

    def pregrant_options(
        self,
        options: "QueryOptions",
        prediction: Prediction,
        deadline: float | None,
    ) -> "QueryOptions":
        """Pre-granted per-stage DOPs: each stage wide enough to finish
        its predicted CPU work within ``PREGRANT_TARGET_FRACTION`` of the
        predicted runtime (or of the deadline, when that is tighter),
        clamped to the fleet's free cores by a deterministic widest-first
        decrement."""
        base = prediction.runtime
        if deadline is not None and 0 < deadline < base:
            base = deadline
        target = max(base * PREGRANT_TARGET_FRACTION, 1e-6)
        dops: dict[int, int] = {}
        for demand in prediction.stages:
            want = (
                math.ceil(demand.cpu_seconds / target)
                if demand.cpu_seconds > 0 else 1
            )
            dops[demand.stage] = max(1, min(PREGRANT_MAX_STAGE_DOP, want))
        cap = max(1, self.engine.cluster.schedulable_cores())
        while sum(dops.values()) > cap and any(d > 1 for d in dops.values()):
            widest = min(
                (sid for sid, d in dops.items() if d > 1),
                key=lambda sid: (-dops[sid], sid),
            )
            dops[widest] -= 1
        if all(d <= 1 for d in dops.values()):
            # Nothing beyond the reactive defaults: leave options alone
            # so admission's planned-cores accounting is unchanged.
            return options
        merged = dict(options.stage_dops)
        merged.update(dops)
        return replace(options, stage_dops=merged)

    # -- observability ------------------------------------------------------
    def gauges(self, since: int | None = None) -> dict:
        """Prediction decisions counted from log mark ``since``
        (``WorkloadReport.predict``), or over the engine's life
        (``predict.*`` in ``engine.metrics``).  ``templates`` / ``runs``
        are the history a window added; the lifetime read is the store
        itself, which may have been loaded from ``history_dir``."""
        counts = self.decisions.counts(since or 0)
        if since is None:
            templates, runs = len(self.store), self.store.total_runs()
        else:
            firsts = self._first_runs
            templates = len(firsts) - bisect_left(firsts, since)
            runs = counts["history", "recorded"]
        return {
            "templates": templates,
            "runs": runs,
            "recorded": counts["history", "recorded"],
            "predictions": counts["predict", "served"],
            "pregrants": counts["predict", "pregrant"],
            "drr_placements": counts["placement", "drr"],
            "reprovisions": counts["predict", "reprovision"],
            "slo_rejections": counts["predict", "slo_reject"],
        }
