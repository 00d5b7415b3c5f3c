"""The predictive control plane: forecast demand, plan placement and
admission, apply the plan to the servers it was planned for.

The loop (see :class:`Controller`):

    demand counters ──► forecaster ──► planner ──► servers
    (the nodes' one     (EWMA+trend)   (pure,       (apply_control_plan;
     registry)                          versioned)    stale plans refused)

The loop's knobs are one :class:`ControlConfig`. The controller runs in
the process of the nodes it drives: it reads their registry, builds its
catalog from their store, and hands each plan to their handles.
"""

from repro.control.controller import ControlConfig, Controller, catalog_from_storage
from repro.control.forecast import EwmaTrendForecaster, Forecast
from repro.control.planner import (
    ControlPlan,
    NodePlan,
    NodeState,
    Planner,
    StalePlanError,
    default_segment_weights,
    diff_plans,
    warm_slice,
)

__all__ = [
    "ControlConfig",
    "ControlPlan",
    "Controller",
    "EwmaTrendForecaster",
    "Forecast",
    "NodePlan",
    "NodeState",
    "Planner",
    "StalePlanError",
    "catalog_from_storage",
    "default_segment_weights",
    "diff_plans",
    "warm_slice",
]
