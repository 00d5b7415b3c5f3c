"""Spherical geometry substrate for 360-degree video.

This package provides the angular arithmetic that makes spherical video
different from flat video: a periodic azimuth dimension, a bounded polar
dimension, projections between the sphere and flat pixel rasters, and
viewport (field-of-view) geometry.

Conventions used throughout the repository:

* ``theta`` is the azimuth (yaw) in radians, periodic over ``[0, 2*pi)``.
* ``phi`` is the polar angle (inclination) in radians over ``[0, pi]``,
  measured from the north pole (``phi = 0``) to the south pole
  (``phi = pi``); the equator is at ``phi = pi / 2``.
* An equirectangular raster of width ``W`` and height ``H`` maps column
  ``x`` to ``theta = 2*pi*x / W`` and row ``y`` to ``phi = pi*y / H``.
"""

from repro.geometry.angles import (
    AngularRect,
    angular_difference,
    clamp_phi,
    unwrap_theta,
    wrap_theta,
)
from repro.geometry.grid import TileGrid
from repro.geometry.projection import EquirectangularProjection
from repro.geometry.sphere import (
    from_unit_vector,
    great_circle_distance,
    to_unit_vector,
)
from repro.geometry.viewport import Orientation, Viewport

__all__ = [
    "AngularRect",
    "EquirectangularProjection",
    "Orientation",
    "TileGrid",
    "Viewport",
    "angular_difference",
    "clamp_phi",
    "from_unit_vector",
    "great_circle_distance",
    "to_unit_vector",
    "unwrap_theta",
    "wrap_theta",
]
