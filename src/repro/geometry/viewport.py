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

    def _camera_basis(self, orientation: Orientation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward/right/up unit vectors for a given gaze direction."""
        forward = to_unit_vector(orientation.theta, orientation.phi)
        world_up = np.array([0.0, 0.0, 1.0])
        right = np.cross(forward, world_up)
        norm = np.linalg.norm(right)
        if norm < 1e-9:
            # Looking straight at a pole: derive "right" from the azimuth so
            # the viewport orientation stays continuous as phi crosses 0/pi.
            right = np.array(
                [-math.sin(orientation.theta), math.cos(orientation.theta), 0.0]
            )
        else:
            right = right / norm
        up = np.cross(right, forward)
        return forward, right, up

    def ray_directions(self, orientation: Orientation, width: int, height: int) -> np.ndarray:
        """Unit view rays for a ``height x width`` viewport raster, ``(h, w, 3)``."""
        if width < 1 or height < 1:
            raise ValueError(f"viewport raster must be positive, got {width}x{height}")
        forward, right, up = self._camera_basis(orientation)
        tan_h = math.tan(self.fov_theta / 2.0)
        tan_v = math.tan(self.fov_phi / 2.0)
        u = (np.arange(width) + 0.5) / width * 2.0 - 1.0
        v = (np.arange(height) + 0.5) / height * 2.0 - 1.0
        u_grid, v_grid = np.meshgrid(u * tan_h, v * tan_v)
        rays = (
            forward[None, None, :]
            + u_grid[..., None] * right[None, None, :]
            - v_grid[..., None] * up[None, None, :]
        )
        return rays / np.linalg.norm(rays, axis=-1, keepdims=True)

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
        rays = self.ray_directions(orientation, samples, samples)
        theta, phi = from_unit_vector(rays.reshape(-1, 3))
        indices = np.unique(grid.tiles_of(theta, phi))
        return {grid.tile_at(int(index)) for index in indices}

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
