"""Orientation traces and the synthetic head-movement model.

The original demonstration used recorded head-movement traces (Corbillon
et al.'s 360-degree head movement dataset). Those recordings are not
available offline, so this module substitutes a stochastic model of how
people watch 360 video, built from the regimes that the eye-tracking
literature describes:

* **fixation** — the head dwells near a point of interest with small
  corrective jitter (an Ornstein-Uhlenbeck pull toward the target);
* **smooth pursuit** — the head tracks a moving object at roughly constant
  angular velocity;
* **saccade** — a fast reorientation toward a new point of interest.

Points of interest are drawn from a hotspot mixture concentrated near the
equator, matching the strong equatorial bias of real traces. The model's
autocorrelation structure — long predictable stretches punctuated by
abrupt jumps — is the property that determines how well each predictor
class performs, which is what the substitution must preserve.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.angles import angular_difference, clamp_phi, wrap_theta
from repro.geometry.viewport import Orientation


@dataclass
class Trace:
    """A time series of head orientations, strictly increasing in time."""

    times: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.thetas = np.asarray(self.thetas, dtype=np.float64)
        self.phis = np.asarray(self.phis, dtype=np.float64)
        if not (self.times.shape == self.thetas.shape == self.phis.shape):
            raise ValueError("times, thetas, phis must have identical shapes")
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("a trace must be a non-empty 1-D series")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def orientation_at(self, time: float) -> Orientation:
        """Orientation at an arbitrary time, interpolated wrap-aware.

        Times outside the trace clamp to the endpoints (a viewer holds
        their final pose).
        """
        if time <= self.times[0]:
            return Orientation(float(self.thetas[0]), float(self.phis[0]))
        if time >= self.times[-1]:
            return Orientation(float(self.thetas[-1]), float(self.phis[-1]))
        right = bisect.bisect_right(self.times, time)
        left = right - 1
        span = self.times[right] - self.times[left]
        fraction = (time - self.times[left]) / span
        delta_theta = angular_difference(self.thetas[right], self.thetas[left])
        theta = self.thetas[left] + fraction * delta_theta
        phi = self.phis[left] + fraction * (self.phis[right] - self.phis[left])
        return Orientation(float(wrap_theta(theta)), float(clamp_phi(phi)))

    def resample(self, rate: float) -> "Trace":
        """A copy sampled at a uniform ``rate`` Hz via interpolation."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        count = max(2, int(round(self.duration * rate)) + 1)
        times = np.linspace(self.times[0], self.times[-1], count)
        orientations = [self.orientation_at(float(t)) for t in times]
        return Trace(
            times,
            np.array([o.theta for o in orientations]),
            np.array([o.phi for o in orientations]),
        )


@dataclass(frozen=True)
class Hotspot:
    """A point of interest: viewers' gaze targets cluster around these."""

    theta: float
    phi: float
    spread: float = 0.3  # radian std-dev of targets drawn from this hotspot
    weight: float = 1.0


#: Default hotspot layout: three equatorial points of interest, one raised —
#: a generic stand-in for "the stage", "the street", "the sky ride".
DEFAULT_HOTSPOTS = (
    Hotspot(theta=0.0, phi=math.pi / 2, spread=0.25, weight=3.0),
    Hotspot(theta=math.pi * 2 / 3, phi=math.pi / 2, spread=0.35, weight=2.0),
    Hotspot(theta=math.pi * 4 / 3, phi=math.pi / 2.6, spread=0.3, weight=1.0),
)


@dataclass
class HeadMovementModel:
    """Regime-switching generator of synthetic head-movement traces.

    Parameters are the knobs that control predictability: longer fixations
    and fewer saccades make every predictor look good; the defaults are
    tuned so a ~1-second horizon is mostly predictable while ~4 seconds is
    not — the qualitative regime reported for real traces.
    """

    hotspots: tuple[Hotspot, ...] = DEFAULT_HOTSPOTS
    fixation_duration_mean: float = 2.5  # seconds dwelling per target
    pursuit_probability: float = 0.3  # chance a dwell is a moving pursuit
    pursuit_speed: float = 0.35  # rad/s drift during pursuit
    saccade_speed: float = 4.0  # rad/s during reorientation
    jitter: float = 0.02  # rad/sqrt(s) fixation noise
    pull: float = 4.0  # 1/s OU pull toward the target

    def _draw_target(self, rng: np.random.Generator) -> tuple[float, float]:
        weights = np.array([spot.weight for spot in self.hotspots])
        spot = self.hotspots[rng.choice(len(self.hotspots), p=weights / weights.sum())]
        theta = wrap_theta(spot.theta + rng.normal(0.0, spot.spread))
        phi = clamp_phi(spot.phi + rng.normal(0.0, spot.spread * 0.6))
        return float(theta), float(phi)

    def generate(self, duration: float, rate: float = 30.0, seed: int = 0) -> Trace:
        """Generate a ``duration``-second trace sampled at ``rate`` Hz."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        rng = np.random.default_rng(seed)
        dt = 1.0 / rate
        count = int(round(duration * rate)) + 1
        times = np.arange(count) * dt
        thetas = np.empty(count)
        phis = np.empty(count)

        theta, phi = self._draw_target(rng)
        target_theta, target_phi = theta, phi
        pursuit_velocity = 0.0
        regime_end = rng.exponential(self.fixation_duration_mean)
        pursuing = False
        sqrt_dt = math.sqrt(dt)

        for i, t in enumerate(times):
            if t >= regime_end:
                target_theta, target_phi = self._draw_target(rng)
                pursuing = rng.random() < self.pursuit_probability
                pursuit_velocity = (
                    rng.choice([-1.0, 1.0]) * self.pursuit_speed if pursuing else 0.0
                )
                regime_end = t + rng.exponential(self.fixation_duration_mean)
            if pursuing:
                target_theta = wrap_theta(target_theta + pursuit_velocity * dt)
            # Move toward the target: saccade-speed-limited pull plus jitter.
            d_theta = angular_difference(target_theta, theta)
            d_phi = target_phi - phi
            step_theta = np.clip(self.pull * d_theta * dt, -self.saccade_speed * dt, self.saccade_speed * dt)
            step_phi = np.clip(self.pull * d_phi * dt, -self.saccade_speed * dt, self.saccade_speed * dt)
            theta = wrap_theta(theta + step_theta + rng.normal(0.0, self.jitter) * sqrt_dt)
            phi = clamp_phi(phi + step_phi + rng.normal(0.0, self.jitter * 0.6) * sqrt_dt)
            thetas[i] = theta
            phis[i] = phi
        return Trace(times, thetas, phis)

    def generate_corpus(
        self, users: int, duration: float, rate: float = 30.0, seed: int = 0
    ) -> list[Trace]:
        """Independent traces for ``users`` viewers of the same content."""
        return [
            self.generate(duration, rate=rate, seed=seed * 10_000 + user)
            for user in range(users)
        ]


def circular_pan_trace(duration: float, rate: float = 30.0, period: float = 10.0) -> Trace:
    """A smooth equatorial pan completing a revolution every ``period`` s —
    the most predictable possible motion, an upper-bound workload."""
    count = int(round(duration * rate)) + 1
    times = np.arange(count) / rate
    thetas = (2.0 * math.pi * times / period) % (2.0 * math.pi)
    phis = np.full(count, math.pi / 2)
    return Trace(times, thetas, phis)
