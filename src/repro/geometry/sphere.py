"""Unit-sphere math: direction vectors and distances.

These are the primitives used to cast viewport rays and to compare a
viewer's true orientation with a predicted one (great-circle error).
"""

from __future__ import annotations

import math

import numpy as np


def to_unit_vector(theta, phi) -> np.ndarray:
    """Convert spherical direction(s) to Cartesian unit vector(s).

    Accepts scalars or equally-shaped arrays; returns an array whose final
    axis holds ``(x, y, z)``. The north pole (``phi = 0``) maps to
    ``(0, 0, 1)`` and ``theta = 0`` on the equator maps to ``(1, 0, 0)``.
    """
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=np.float64), np.asarray(phi, dtype=np.float64)
    )
    sin_phi = np.sin(phi)
    return np.stack(
        [sin_phi * np.cos(theta), sin_phi * np.sin(theta), np.cos(phi)], axis=-1
    )


def from_unit_vector(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert Cartesian unit vector(s) back to ``(theta, phi)``.

    ``theta`` is returned in ``[0, 2*pi)`` and ``phi`` in ``[0, pi]``.
    The input does not need to be exactly normalised.
    """
    vec = np.asarray(vec, dtype=np.float64)
    norm = np.linalg.norm(vec, axis=-1)
    z = np.clip(vec[..., 2] / np.where(norm == 0.0, 1.0, norm), -1.0, 1.0)
    phi = np.arccos(z)
    theta = np.arctan2(vec[..., 1], vec[..., 0]) % (2.0 * math.pi)
    return theta, phi


def great_circle_distance(theta_a, phi_a, theta_b, phi_b):
    """Angular distance in radians between two directions on the sphere.

    Uses the dot-product formulation, which is numerically adequate at the
    precision required for viewport prediction error (fractions of a
    degree do not matter when tiles span tens of degrees).
    """
    a = to_unit_vector(theta_a, phi_a)
    b = to_unit_vector(theta_b, phi_b)
    dot = np.clip(np.sum(a * b, axis=-1), -1.0, 1.0)
    result = np.arccos(dot)
    if result.ndim == 0:
        return float(result)
    return result
