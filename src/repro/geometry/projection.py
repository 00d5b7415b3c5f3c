"""Sphere-to-raster projections.

A 360-degree camera produces a sphere of directions; codecs consume flat
rasters. The *projection* is the lossy bridge between the two, and it is
one of the format incompatibilities the VisualCloud data model hides from
applications. This module implements the equirectangular projection (the
storage format) and a cubemap projection (used by the projection ablation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.angles import TWO_PI


def _bilinear_sample(plane: np.ndarray, x: np.ndarray, y: np.ndarray, wrap_x: bool) -> np.ndarray:
    """Bilinearly sample ``plane[y, x]`` at fractional coordinates.

    ``x`` wraps modulo the width when ``wrap_x`` (the azimuth seam of an
    equirectangular raster is continuous); ``y`` is clamped (the poles are
    edges, not seams).
    """
    height, width = plane.shape[:2]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0
    if wrap_x:
        x0 %= width
        x1 = (x0 + 1) % width
    else:
        x0 = np.clip(x0, 0, width - 1)
        x1 = np.clip(x0 + 1, 0, width - 1)
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
        return _bilinear_sample(plane.astype(np.float64), x, y, wrap_x=True)

    def sampling_density(self) -> np.ndarray:
        """Relative sample density per row (equator = 1).

        Row ``y`` spans a circle of circumference proportional to
        ``sin(phi)``; equirectangular rasters allocate the same number of
        pixels to every row, so density is ``1 / sin(phi)`` (clipped at the
        poles). Used by the nonuniform-sampling analysis example.
        """
        _, phi = self.pixel_to_angle(np.zeros(self.height), np.arange(self.height))
        return 1.0 / np.maximum(np.sin(phi), 1e-6)


# Cube face order and orientation. Each face is described by the direction
# of its outward normal and the world-space axes that map to the face's
# +u (rightward) and +v (downward) texture directions.
_CUBE_FACES = (
    ("+x", np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, -1.0])),
    ("-x", np.array([-1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]), np.array([0.0, 0.0, -1.0])),
    ("+y", np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0])),
    ("-y", np.array([0.0, -1.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0])),
    ("+z", np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])),
    ("-z", np.array([0.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0, 0.0])),
)


@dataclass(frozen=True)
class CubemapProjection:
    """A six-face cubemap projection with square faces of ``face_size`` pixels.

    Cubemaps sample the sphere far more uniformly than equirectangular
    rasters (worst-case density ratio ~1.7 vs. unbounded at the poles) at
    the cost of face seams. VisualCloud stores equirectangular; the
    projection ablation uses this class to quantify the trade-off.
    """

    face_size: int

    def __post_init__(self) -> None:
        if self.face_size < 2:
            raise ValueError(f"face_size must be >= 2, got {self.face_size}")

    @property
    def face_names(self) -> tuple[str, ...]:
        return tuple(name for name, *_ in _CUBE_FACES)

    def face_directions(self, face_index: int) -> np.ndarray:
        """Unit direction for every texel of one face, shape ``(n, n, 3)``."""
        if not 0 <= face_index < 6:
            raise IndexError(f"face index {face_index} outside [0, 6)")
        _, normal, u_axis, v_axis = _CUBE_FACES[face_index]
        n = self.face_size
        coords = (np.arange(n) + 0.5) / n * 2.0 - 1.0
        v_grid, u_grid = np.meshgrid(coords, coords, indexing="ij")
        directions = (
            normal[None, None, :]
            + u_grid[..., None] * u_axis[None, None, :]
            + v_grid[..., None] * v_axis[None, None, :]
        )
        return directions / np.linalg.norm(directions, axis=-1, keepdims=True)

    def from_equirectangular(self, plane: np.ndarray) -> np.ndarray:
        """Resample an equirectangular plane into six faces ``(6, n, n)``."""
        from repro.geometry.sphere import from_unit_vector

        height, width = plane.shape[:2]
        equirect = EquirectangularProjection(width, height)
        faces = np.empty((6, self.face_size, self.face_size), dtype=np.float64)
        for index in range(6):
            theta, phi = from_unit_vector(self.face_directions(index))
            faces[index] = equirect.sample(plane, theta, phi)
        return faces

    def sample(self, faces: np.ndarray, theta, phi) -> np.ndarray:
        """Sample a ``(6, n, n)`` cubemap at direction(s) ``(theta, phi)``."""
        from repro.geometry.sphere import to_unit_vector

        direction = to_unit_vector(theta, phi)
        abs_dir = np.abs(direction)
        axis = np.argmax(abs_dir, axis=-1)
        sign = np.sign(np.take_along_axis(direction, axis[..., None], axis=-1))[..., 0]
        # Face index layout matches _CUBE_FACES: (+x,-x,+y,-y,+z,-z).
        face = axis * 2 + (sign < 0)
        result = np.empty(np.shape(face), dtype=np.float64)
        flat_face = np.ravel(face)
        flat_dir = direction.reshape(-1, 3)
        flat_out = np.ravel(result)
        n = self.face_size
        for index in range(6):
            mask = flat_face == index
            if not np.any(mask):
                continue
            _, normal, u_axis, v_axis = _CUBE_FACES[index]
            d = flat_dir[mask]
            scale = 1.0 / np.abs(d @ normal)
            u = (d @ u_axis) * scale
            v = (d @ v_axis) * scale
            x = (u + 1.0) / 2.0 * n - 0.5
            y = (v + 1.0) / 2.0 * n - 0.5
            flat_out[mask] = _bilinear_sample(faces[index].astype(np.float64), x, y, wrap_x=False)
        return result.reshape(np.shape(face)) if np.ndim(face) else float(flat_out[0])
