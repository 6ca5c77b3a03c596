"""DOP tuning request filter (paper Section 5.2).

Blocks requests that would waste resources:

* requests against finished queries or stages,
* no-op requests (already at the target DOP) and requests against stages
  whose parallelism is pinned (final aggregation),
* join-stage requests whose estimated remaining time is smaller than the
  hash-table reconstruction time,
* DOP switching while the active group's hash tables are still building.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..elastic.tuning import TuningKind, TuningRequest
from ..errors import TuningRejected
from .whatif import WhatIfService

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.coordinator import QueryExecution


class TuningRequestFilter:
    def __init__(self, whatif: WhatIfService):
        self.whatif = whatif
        #: Stage id -> virtual time until which scale-ups are pinned.  Set
        #: by the resource arbiter after revoking cores from a stage so
        #: the victim's own monitor does not immediately re-grab them.
        self.pins: dict[int, float] = {}

    def pin(self, stage_id: int, until: float) -> None:
        """Block scale-up requests against ``stage_id`` until ``until``."""
        self.pins[stage_id] = max(self.pins.get(stage_id, 0.0), until)

    def check(self, query: "QueryExecution", request: TuningRequest) -> None:
        """Raises :class:`TuningRejected` if the request should be blocked."""
        try:
            self._check(query, request)
        except TuningRejected as exc:
            query.kernel.decisions.record(
                "rejected", exc.reason, query_id=query.id, stage=request.stage,
                reason=str(exc), request=request.kind.value, target=request.target,
            )
            raise

    def _check(self, query: "QueryExecution", request: TuningRequest) -> None:
        if query.finished:
            raise TuningRejected("query already finished", reason="finished")
        if request.stage not in query.stages:
            raise TuningRejected(f"no stage {request.stage}", reason="unknown-stage")
        stage = query.stage(request.stage)
        if stage.finished:
            raise TuningRejected(
                f"stage {stage.id} already finished", reason="finished"
            )
        if request.target < 1:
            raise TuningRejected("target DOP must be >= 1", reason="invalid")
        if stage.fragment.dop_fixed and request.target != 1:
            raise TuningRejected(
                f"stage {stage.id} parallelism is fixed at 1 (final aggregation)",
                reason="fixed",
            )
        if request.kind is TuningKind.TASK_DOP:
            if request.target == stage.task_dop:
                raise TuningRejected("already at target task DOP", reason="noop")
            return
        if request.target == stage.stage_dop:
            raise TuningRejected("already at target stage DOP", reason="noop")
        pin_until = self.pins.get(request.stage)
        if (
            pin_until is not None
            and request.target > stage.stage_dop
            and query.kernel.now < pin_until
        ):
            raise TuningRejected(
                f"stage {stage.id} pinned by the resource arbiter until "
                f"t={pin_until:.2f} (cores were revoked)",
                reason="pinned",
            )
        if stage.has_join() and request.target > stage.stage_dop:
            self._check_join_worthwhile(query, stage, request)

    def _check_join_worthwhile(self, query, stage, request) -> None:
        if stage.is_partitioned_join:
            active = stage.active_group
            if active and not all(
                all(b.ready for b in t.bridges) for t in active
            ):
                raise TuningRejected(
                    "hash tables still building; DOP switch deferred",
                    reason="building",
                )
        t_remain = self.whatif.remaining_time(stage.id)
        t_build = self.whatif.tuning_time(stage.id)
        if t_remain is not None and t_build > 0 and t_remain < t_build:
            raise TuningRejected(
                f"remaining time {t_remain:.2f}s < hash rebuild time "
                f"{t_build:.2f}s — tuning would waste resources",
                reason="remaining-lt-build",
            )
