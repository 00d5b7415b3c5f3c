"""Viewport (field-of-view) geometry.

A VR headset displays a narrow window onto the sphere — typically around
90-110 degrees of the 360 available. Everything VisualCloud saves comes
from this asymmetry: only the tiles intersecting the viewport need high
quality. This module computes, for a head orientation, which directions a
viewer sees, which tiles those directions touch, and the rendered viewport
image itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.angles import clamp_phi, wrap_theta
from repro.geometry.grid import TileGrid
from repro.geometry.projection import EquirectangularProjection
from repro.geometry.sphere import from_unit_vector, to_unit_vector


@dataclass(frozen=True)
class Orientation:
    """A head pose: the direction of gaze as ``(theta, phi)``.

    Roll is ignored throughout the system — it changes which pixels are
    visible only at the viewport corners and has no effect on tile-level
    decisions.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(wrap_theta(self.theta)))
        object.__setattr__(self, "phi", float(clamp_phi(self.phi)))


@dataclass(frozen=True)
class Viewport:
    """A symmetric perspective frustum with the given field of view.

    ``fov_theta`` and ``fov_phi`` are the horizontal and vertical fields of
    view in radians. The default (100 x 100 degrees) approximates consumer
    headsets of the paper's era.
    """

    fov_theta: float = math.radians(100.0)
    fov_phi: float = math.radians(100.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.fov_theta < math.pi:
            raise ValueError(f"horizontal FOV {self.fov_theta} outside (0, pi)")
        if not 0.0 < self.fov_phi < math.pi:
            raise ValueError(f"vertical FOV {self.fov_phi} outside (0, pi)")

    def _camera_basis(
        self, thetas: np.ndarray, phis: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward/right/up unit vectors, each ``(..., 3)``, for gaze directions."""
        forward = to_unit_vector(thetas, phis)
        right = np.cross(forward, [0.0, 0.0, 1.0])
        norm = np.linalg.norm(right, axis=-1, keepdims=True)
        # Looking straight at a pole: derive "right" from the azimuth so
        # the viewport orientation stays continuous as phi crosses 0/pi.
        polar = np.stack([-np.sin(thetas), np.cos(thetas), np.zeros_like(thetas)], axis=-1)
        right = np.where(norm < 1e-9, polar, right / np.maximum(norm, 1e-9))
        up = np.cross(right, forward)
        return forward, right, up

    def _rays(self, thetas: np.ndarray, phis: np.ndarray, width: int, height: int) -> np.ndarray:
        """Unit view rays ``(3, ..., height * width)``, axis first: one
        row-major raster per gaze direction, each axis contiguous."""
        if width < 1 or height < 1:
            raise ValueError(f"viewport raster must be positive, got {width}x{height}")
        forward, right, up = (
            np.moveaxis(axis, -1, 0)[..., None] for axis in self._camera_basis(thetas, phis)
        )
        tan_h = math.tan(self.fov_theta / 2.0)
        tan_v = math.tan(self.fov_phi / 2.0)
        u = (np.arange(width) + 0.5) / width * 2.0 - 1.0
        v = (np.arange(height) + 0.5) / height * 2.0 - 1.0
        u_grid, v_grid = (grid.ravel() for grid in np.meshgrid(u * tan_h, v * tan_v))
        rays = forward + u_grid * right - v_grid * up
        return rays / np.sqrt(rays[0] * rays[0] + rays[1] * rays[1] + rays[2] * rays[2])

    def ray_directions(self, orientation: Orientation, width: int, height: int) -> np.ndarray:
        """Unit view rays for a ``height x width`` viewport raster, ``(h, w, 3)``."""
        rays = self._rays(np.float64(orientation.theta), np.float64(orientation.phi), width, height)
        return rays.T.reshape(height, width, 3)

    def visible_mask(
        self, thetas: np.ndarray, phis: np.ndarray, grid: TileGrid, samples: int = 15
    ) -> np.ndarray:
        """Batched :meth:`visible_tiles`: for gaze directions of any shape
        ``(...)``, a boolean ``(..., grid.tile_count)`` array over
        row-major tile indices, from the same ray lattice in one call."""
        thetas, phis = np.broadcast_arrays(
            np.asarray(thetas, dtype=np.float64), np.asarray(phis, dtype=np.float64)
        )
        theta, phi = from_unit_vector(np.moveaxis(self._rays(thetas, phis, samples, samples), 0, -1))
        mask = np.zeros((*thetas.shape, grid.tile_count), dtype=bool)
        np.put_along_axis(mask, grid.tiles_of(theta, phi), True, axis=-1)
        return mask

    def visible_tiles(
        self, orientation: Orientation, grid: TileGrid, samples: int = 15
    ) -> set[tuple[int, int]]:
        """Tiles intersected by the viewport at the given orientation.

        Conservatively determined by casting a ``samples x samples`` grid of
        rays through the frustum and collecting the tile under each ray.
        Ray sampling is robust where analytic rectangle intersection is
        not — near the poles a frustum's equirectangular footprint is not a
        rectangle at all.
        """
        return grid.tiles_in(self.visible_mask(orientation.theta, orientation.phi, grid, samples))

    def render(
        self,
        plane: np.ndarray,
        orientation: Orientation,
        width: int,
        height: int,
    ) -> np.ndarray:
        """Render the viewport seen at ``orientation`` from an equirect plane.

        Returns a ``height x width`` float array sampled with bilinear
        interpolation. This is the image whose fidelity QoE metrics score:
        degradation outside the viewport is invisible by construction.
        """
        projection = EquirectangularProjection(plane.shape[1], plane.shape[0])
        rays = self.ray_directions(orientation, width, height)
        theta, phi = from_unit_vector(rays)
        return projection.sample(plane, theta, phi)
