"""The predictive control plane: forecast demand, plan placement and
admission, actuate through the serve tier's runtime endpoints.

The loop (see :class:`Controller`):

    metrics stream ──► forecaster ──► planner ──► actuators
    (obs deltas)       (EWMA+trend)   (pure,       (handle / HTTP,
                                      versioned)    rollback-refused)

Configure through :class:`ClusterConfig` — the one object the serve
entry points (``VisualCloud.serve``, the CLI, the bench driver) accept.
"""

from repro.control.actuators import HandleActuator, HttpActuator, StalePlanError
from repro.control.config import ClusterConfig, ControlConfig
from repro.control.controller import (
    Controller,
    catalog_from_storage,
    default_segment_weights,
    nodes_from_config,
)
from repro.control.forecast import EwmaTrendForecaster, Forecast
from repro.control.planner import ControlPlan, NodePlan, NodeState, Planner, diff_plans

__all__ = [
    "ClusterConfig",
    "ControlConfig",
    "ControlPlan",
    "Controller",
    "EwmaTrendForecaster",
    "Forecast",
    "HandleActuator",
    "HttpActuator",
    "NodePlan",
    "NodeState",
    "Planner",
    "StalePlanError",
    "catalog_from_storage",
    "default_segment_weights",
    "diff_plans",
    "nodes_from_config",
]
