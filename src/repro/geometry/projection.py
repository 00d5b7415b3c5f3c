"""Sphere-to-raster projections.

A 360-degree camera produces a sphere of directions; codecs consume flat
rasters. The *projection* is the lossy bridge between the two, and it is
one of the format incompatibilities the VisualCloud data model hides from
applications. This module implements the equirectangular projection, the one
storage format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.angles import TWO_PI


def _bilinear_sample(plane: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinearly sample ``plane[y, x]`` at fractional coordinates.

    ``x`` wraps modulo the width (the azimuth seam of an equirectangular
    raster is continuous); ``y`` is clamped (the poles are edges, not
    seams).
    """
    height, width = plane.shape[:2]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0
    x0 %= width
    x1 = (x0 + 1) % width
    y0 = np.clip(y0, 0, height - 1)
    y1 = np.clip(y0 + 1, 0, height - 1)
    top = plane[y0, x0] * (1.0 - fx) + plane[y0, x1] * fx
    bottom = plane[y1, x0] * (1.0 - fx) + plane[y1, x1] * fx
    return top * (1.0 - fy) + bottom * fy


@dataclass(frozen=True)
class EquirectangularProjection:
    """The equirectangular (lat-long) projection onto a ``width x height`` raster.

    Columns map linearly to azimuth and rows to polar angle, so the raster
    oversamples the poles: the top and bottom rows each represent a single
    direction stretched across the full width.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError(f"raster must be at least 2x2, got {self.width}x{self.height}")

    def pixel_to_angle(self, x, y):
        """Direction at the *center* of pixel ``(x, y)``; accepts arrays."""
        theta = (np.asarray(x, dtype=np.float64) + 0.5) * (TWO_PI / self.width)
        phi = (np.asarray(y, dtype=np.float64) + 0.5) * (math.pi / self.height)
        return theta % TWO_PI, np.clip(phi, 0.0, math.pi)

    def angle_to_pixel(self, theta, phi):
        """Fractional pixel coordinates for direction(s) ``(theta, phi)``.

        Inverse of :meth:`pixel_to_angle`: integer results land on pixel
        centers. The returned x may be used with wrap-aware sampling.
        """
        theta = np.asarray(theta, dtype=np.float64) % TWO_PI
        phi = np.clip(np.asarray(phi, dtype=np.float64), 0.0, math.pi)
        x = theta * (self.width / TWO_PI) - 0.5
        y = phi * (self.height / math.pi) - 0.5
        return x, y

    def sample(self, plane: np.ndarray, theta, phi) -> np.ndarray:
        """Bilinearly sample an equirectangular plane at direction(s)."""
        if plane.shape[:2] != (self.height, self.width):
            raise ValueError(
                f"plane shape {plane.shape[:2]} does not match projection "
                f"{self.height}x{self.width}"
            )
        x, y = self.angle_to_pixel(theta, phi)
        return _bilinear_sample(plane.astype(np.float64), x, y)

    def sampling_density(self) -> np.ndarray:
        """Relative sample density per row (equator = 1).

        Row ``y`` spans a circle of circumference proportional to
        ``sin(phi)``; equirectangular rasters allocate the same number of
        pixels to every row, so density is ``1 / sin(phi)`` (clipped at the
        poles). Used by the nonuniform-sampling analysis example.
        """
        _, phi = self.pixel_to_angle(np.zeros(self.height), np.arange(self.height))
        return 1.0 / np.maximum(np.sin(phi), 1e-6)

