"""Deterministic fault injection and failure recovery.

This package adds the robustness layer the paper's production context
implies but does not spell out: Accordion runs on cloud VMs where nodes
die, control-plane RPCs get lost, and tasks crash mid-execution.  The
fault model is documented in DESIGN.md ("Fault model & recovery"):

* Faults are events of a timed-action plan (:class:`repro.Plan`:
  ``NodeCrash``, ``TaskCrash``, ``RpcStorm``, ``RpcOutage``) that
  ``engine.apply`` fires on the simulation's virtual clock, so a given
  seed reproduces a bit-identical fault timeline.
* Recovery (:class:`RecoveryManager`) blacklists dead nodes, respawns
  crashed tasks through the intra-stage 3-step task-addition path
  (Section 4.4) with lineage-log replay for exactly-once delivery, and
  fails queries with a structured
  :class:`~repro.errors.QueryFailedError` when a crash is unrecoverable —
  never by hanging the event loop.
"""

from .recovery import RecoveryManager

__all__ = ["RecoveryManager"]
