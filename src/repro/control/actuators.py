"""Actuators: the control loop's hands.

An actuator is anything with ``apply(plan) -> dict``: it delivers a
versioned :class:`~repro.control.planner.ControlPlan` to a serving
node and returns the node's application summary (``{"version": ...,
"pinned": ..., "max_inflight": ...}``). :class:`HandleActuator` does it
in-process, for a ``ServerHandle`` (anything exposing
``apply_control_plan``); a node this process did not start takes the
same plan over the wire through
:meth:`repro.serve.client.HttpSegmentClient.post_control`.

Both surface version refusal the same way: a node holding a newer plan
answers 409 (wire) or raises ``ValueError`` (local), and the caller
sees :class:`StalePlanError` — the controller counts it and moves on,
because a refused stale plan means a newer controller is already in
charge, which is the rollback-refusal pattern working as designed.
"""

from __future__ import annotations

from repro.control.planner import ControlPlan


class StalePlanError(ValueError):
    """The node refused the plan: it already holds a newer version."""


class HandleActuator:
    """Applies plans to an in-process server handle."""

    def __init__(self, handle) -> None:
        self.handle = handle

    def apply(self, plan: ControlPlan) -> dict:
        try:
            return self.handle.apply_control_plan(plan)
        except ValueError as error:
            raise StalePlanError(str(error)) from error


__all__ = ["HandleActuator", "StalePlanError"]
