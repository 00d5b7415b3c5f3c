"""Periodic angular arithmetic.

The azimuth dimension of spherical video is periodic: ``theta = 0`` and
``theta = 2*pi`` are the same direction, and an angular interval such as
``[3*pi/2, pi/2)`` (wrapping through zero) is perfectly well formed. Flat
video systems get this wrong by treating the projected raster as ordinary
pixels; this module centralises the wrap-aware arithmetic so the rest of
the system never has to special-case the seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_theta(theta):
    """Wrap an azimuth (scalar or array) into ``[0, 2*pi)``.

    Float modulo can round a tiny negative input up to exactly ``2*pi``;
    that edge is folded back to ``0`` so the result is always in range.

    >>> round(wrap_theta(-math.pi / 2), 6) == round(3 * math.pi / 2, 6)
    True
    """
    if isinstance(theta, np.ndarray):
        wrapped = theta % TWO_PI
        return np.where(wrapped >= TWO_PI, 0.0, wrapped)
    wrapped = theta % TWO_PI
    return 0.0 if wrapped >= TWO_PI else wrapped


def clamp_phi(phi):
    """Clamp a polar angle (scalar or array) into ``[0, pi]``.

    Unlike azimuth, the polar dimension does not wrap: looking "past" a pole
    flips the azimuth instead. Callers that model pole crossings should do
    so explicitly (see :mod:`repro.predict.traces`); this helper merely
    keeps numerical noise inside the valid domain.
    """
    if isinstance(phi, np.ndarray):
        return np.clip(phi, 0.0, math.pi)
    return min(max(phi, 0.0), math.pi)


def angular_difference(a, b):
    """Signed shortest rotation from azimuth ``b`` to azimuth ``a``.

    The result lies in ``(-pi, pi]``. Works on scalars and arrays.
    """
    diff = (np.asarray(a) - np.asarray(b) + math.pi) % TWO_PI - math.pi
    # Map the open edge -pi to +pi so the result is unique.
    diff = np.where(diff == -math.pi, math.pi, diff)
    if diff.ndim == 0:
        return float(diff)
    return diff


def unwrap_theta(thetas: np.ndarray) -> np.ndarray:
    """Unwrap a sequence of azimuth samples into a continuous real line.

    Successive samples are assumed to differ by less than ``pi``; the
    result is suitable for fitting regression models that cannot reason
    about periodicity (see
    :class:`repro.predict.predictors.DeadReckoningPredictor`).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        return thetas.copy()
    deltas = angular_difference(thetas[1:], thetas[:-1])
    out = np.empty_like(thetas)
    out[0] = thetas[0]
    if thetas.size > 1:
        out[1:] = thetas[0] + np.cumsum(deltas)
    return out


@dataclass(frozen=True)
class AngularRect:
    """An axis-aligned rectangle in (theta, phi) angular space.

    ``theta`` spans ``[theta0, theta1)`` counter-clockwise and may wrap
    through zero; ``phi`` spans ``[phi0, phi1)`` and never wraps. Angular
    rectangles are the footprint of spatiotemporal segments (tiles) in the
    VisualCloud storage manager.
    """

    theta0: float
    theta1: float
    phi0: float
    phi1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.phi0 <= self.phi1 <= math.pi + 1e-9:
            raise ValueError(
                f"phi range [{self.phi0}, {self.phi1}] must be ordered within [0, pi]"
            )

    @property
    def theta_span(self) -> float:
        """Counter-clockwise azimuth extent in radians, in ``(0, 2*pi]``."""
        span = (self.theta1 - self.theta0) % TWO_PI
        if span == 0.0 and self.theta1 != self.theta0:
            return TWO_PI
        return span

    def center(self) -> tuple[float, float]:
        """The angular midpoint ``(theta, phi)`` of the rectangle."""
        return (
            wrap_theta(self.theta0 + self.theta_span / 2.0),
            (self.phi0 + self.phi1) / 2.0,
        )
