"""Control-plane configuration: the loop's knobs in one validated object.

:class:`ControlConfig` carries the controller's cadence, the forecaster
smoothing and the planner parameters; a bad value fails at construction,
not at the first controller step. How a tier is *reached* is not
configuration here: ``VisualCloud.serve(..., base_url=...)`` takes the
address, and :class:`~repro.serve.server.ServerConfig` the per-node
tunables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.forecast import EwmaTrendForecaster
from repro.control.planner import Planner


@dataclass(frozen=True)
class ControlConfig:
    """The control loop's knobs: cadence, forecaster, SLO, and the
    planner parameters derived from them."""

    interval: float = 0.5  # seconds between controller steps
    alpha: float = 0.4  # demand-level smoothing
    beta: float = 0.3  # trend smoothing
    horizon: float = 2.0  # prediction lookahead, in intervals
    slo_p99: float = 0.25  # seconds; admission loop setpoint
    prewarm_threshold: float = 1.0  # predicted requests/interval to warm a video
    min_inflight: int = 4
    inflight_ceiling: int | None = None
    increase_step: int = 4
    decrease_factor: float = 0.5
    fallback_inflight: int = 64
    deterministic: bool = False  # injected clock/metrics; no wall-time reads

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"control interval must be positive, got {self.interval}")
        # Forecaster/planner parameter validation happens in their
        # constructors; build them eagerly so a bad config fails at
        # construction, not at the first controller step.
        self.build_forecaster()
        self.planner()

    def build_forecaster(self) -> EwmaTrendForecaster:
        return EwmaTrendForecaster(self.alpha, self.beta, self.horizon)

    def planner(self) -> Planner:
        return Planner(
            slo_p99=self.slo_p99,
            prewarm_threshold=self.prewarm_threshold,
            min_inflight=self.min_inflight,
            inflight_ceiling=self.inflight_ceiling,
            increase_step=self.increase_step,
            decrease_factor=self.decrease_factor,
            fallback_inflight=self.fallback_inflight,
        )


__all__ = ["ControlConfig"]
