"""Control-plane configuration: the loop's knobs in one validated object.

:class:`ControlConfig` carries the forecaster horizon and the
:class:`~repro.control.planner.Planner` it plans with; a
bad value fails at construction, not at the first controller step. How a
tier is *reached* is not configuration here: ``VisualCloud.serve(...,
base_url=...)`` takes the address, and
:class:`~repro.serve.server.ServerConfig` the per-node tunables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.control.forecast import EwmaTrendForecaster
from repro.control.planner import Planner


@dataclass(frozen=True)
class ControlConfig:
    """The control loop's knobs: forecast horizon, planner."""

    horizon: float = 2.0  # prediction lookahead, in intervals
    planner: Planner = field(default_factory=Planner)
    deterministic: bool = False  # injected clock/metrics; no wall-time reads

    def __post_init__(self) -> None:
        # The forecaster validates its own parameters; build it eagerly
        # so a bad horizon fails here, not at the first controller step.
        self.build_forecaster()

    def build_forecaster(self) -> EwmaTrendForecaster:
        return EwmaTrendForecaster(horizon=self.horizon)


__all__ = ["ControlConfig"]
