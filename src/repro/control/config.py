"""Cluster configuration: one object for the whole serving tier.

Before this module, standing up a cluster meant threading loose kwargs
through three layers — ``ServerConfig`` fields, bench-harness flags,
and ``VisualCloud.serve(transport=..., base_url=...)`` — each invented
independently. :class:`ClusterConfig` is the composition root: the
server tunables (which already carry pin budget, shard map, process
count), the control-plane knobs, and the delivery transport, in one
validated dataclass that every entry point (``VisualCloud.serve``, the
``serve`` CLI, :mod:`repro.bench.flash_crowd`) accepts directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.control.forecast import EwmaTrendForecaster
from repro.control.planner import Planner
from repro.serve.server import ServerConfig


@dataclass(frozen=True)
class ControlConfig:
    """The control loop's knobs: cadence, forecaster, SLO, and the
    planner parameters derived from them."""

    enabled: bool = False
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


@dataclass(frozen=True)
class ClusterConfig:
    """Everything one serving cluster needs, composed.

    * ``server`` — the per-node tunables (:class:`ServerConfig` already
      carries pin budget, shard map/peers, and worker process count);
    * ``control`` — the predictive control plane (off by default);
    * ``transport``/``base_url`` — how ``VisualCloud.serve`` reaches the
      tier: ``"sim"`` runs in-process simulation, ``"http"`` streams
      real bytes from ``base_url``.
    """

    server: ServerConfig = field(default_factory=ServerConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    transport: str = "sim"
    base_url: str | None = None

    def __post_init__(self) -> None:
        if self.transport not in ("sim", "http"):
            raise ValueError(
                f"unknown transport {self.transport!r}; use 'sim' or 'http'"
            )
        if self.transport == "http" and self.base_url is None:
            raise ValueError("transport='http' requires base_url")
        if self.base_url is not None and self.transport != "http":
            raise ValueError("base_url only applies to transport='http'")

    def with_base_url(self, base_url: str) -> "ClusterConfig":
        """This config pointed at a live server — the bench driver binds
        an ephemeral port first, then derives the session-facing config."""
        return replace(self, transport="http", base_url=base_url)


__all__ = ["ClusterConfig", "ControlConfig"]
