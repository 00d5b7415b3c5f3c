"""The predictive control plane: forecast demand, plan placement and
admission, actuate through the serve tier's runtime endpoints.

The loop (see :class:`Controller`):

    metrics stream ──► forecaster ──► planner ──► actuators
    (obs deltas)       (EWMA+trend)   (pure,       (server handles,
                                      versioned)    rollback-refused)

The loop's knobs are one :class:`ControlConfig`. This package depends on
:mod:`repro.obs` alone: servers, storage and clients reach it as duck
types through the controller's injected sources and actuators.
"""

from repro.control.actuators import HandleActuator, StalePlanError
from repro.control.config import ControlConfig
from repro.control.controller import Controller, catalog_from_storage
from repro.control.forecast import EwmaTrendForecaster, Forecast
from repro.control.planner import (
    ControlPlan,
    NodePlan,
    NodeState,
    Planner,
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
    "HandleActuator",
    "NodePlan",
    "NodeState",
    "Planner",
    "StalePlanError",
    "catalog_from_storage",
    "default_segment_weights",
    "diff_plans",
    "warm_slice",
]
