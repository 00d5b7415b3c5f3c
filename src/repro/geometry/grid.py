"""Angular tile grids.

VisualCloud segments the viewing sphere into a regular grid of tiles over
the equirectangular projection: ``cols`` equal azimuth slices by ``rows``
equal polar slices. Every tile is encoded independently at every quality
level, which is what lets the streamer substitute qualities per tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.geometry.angles import TWO_PI, AngularRect, wrap_theta


@dataclass(frozen=True)
class TileGrid:
    """A ``rows x cols`` angular tiling of the full sphere.

    ``rows`` divides the polar range ``[0, pi]``; ``cols`` divides the
    azimuth range ``[0, 2*pi)``. Tiles are addressed ``(row, col)`` with
    row 0 at the north pole and col 0 starting at ``theta = 0``.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def tile_count(self) -> int:
        return self.rows * self.cols

    @property
    def theta_step(self) -> float:
        return TWO_PI / self.cols

    @property
    def phi_step(self) -> float:
        return math.pi / self.rows

    def tiles(self) -> Iterator[tuple[int, int]]:
        """Iterate over all tile coordinates in row-major order."""
        for row in range(self.rows):
            for col in range(self.cols):
                yield (row, col)

    def index_of(self, row: int, col: int) -> int:
        """Row-major linear index of a tile, validating bounds."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"tile ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def tile_at(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`index_of`."""
        if not 0 <= index < self.tile_count:
            raise IndexError(f"tile index {index} outside grid of {self.tile_count}")
        return divmod(index, self.cols)

    def tiles_in(self, mask: np.ndarray) -> set[tuple[int, int]]:
        """The tiles a boolean mask over row-major indices selects."""
        return {divmod(int(index), self.cols) for index in np.flatnonzero(mask)}

    def mask_of(self, tiles: set[tuple[int, int]]) -> np.ndarray:
        """Inverse of :meth:`tiles_in`; tiles outside the grid are dropped."""
        mask = np.zeros(self.tile_count, dtype=bool)
        for row, col in tiles:
            if 0 <= row < self.rows and 0 <= col < self.cols:
                mask[row * self.cols + col] = True
        return mask

    def rect(self, row: int, col: int) -> AngularRect:
        """The angular rectangle covered by tile ``(row, col)``."""
        self.index_of(row, col)  # bounds check
        return AngularRect(
            theta0=col * self.theta_step,
            theta1=(col + 1) * self.theta_step if col + 1 < self.cols else TWO_PI,
            phi0=row * self.phi_step,
            phi1=(row + 1) * self.phi_step if row + 1 < self.rows else math.pi,
        )

    def tile_of(self, theta: float, phi: float) -> tuple[int, int]:
        """The tile containing direction ``(theta, phi)``."""
        theta = wrap_theta(theta)
        col = min(int(theta / self.theta_step), self.cols - 1)
        row = min(int(phi / self.phi_step), self.rows - 1)
        return (row, col)

    def tiles_of(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`tile_of`: returns linear indices for arrays."""
        thetas = np.asarray(thetas) % TWO_PI
        phis = np.clip(np.asarray(phis), 0.0, math.pi)
        cols = np.minimum((thetas / self.theta_step).astype(np.int64), self.cols - 1)
        rows = np.minimum((phis / self.phi_step).astype(np.int64), self.rows - 1)
        return rows * self.cols + cols

    def neighbors(self, row: int, col: int) -> list[tuple[int, int]]:
        """The 8-neighbourhood of a tile, wrap-aware in the column axis.

        Used to expand a predicted-visible tile set by a safety margin:
        column neighbours wrap through the azimuth seam, while row
        neighbours stop at the poles (there is no tile "above" the top
        row — pole adjacency across the cap is approximated by the same
        row's wrapped columns already covering all azimuths).
        """
        self.index_of(row, col)  # bounds check
        result = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                r = row + dr
                if not 0 <= r < self.rows:
                    continue
                candidate = (r, (col + dc) % self.cols)
                if candidate != (row, col):
                    result.append(candidate)
        # Deduplicate: on a 1- or 2-column grid, wrapped offsets collide.
        return sorted(set(result))

    def expand(self, tiles: set[tuple[int, int]], margin: int = 1) -> set[tuple[int, int]]:
        """Grow a tile set by ``margin`` rings of neighbours."""
        current = set(tiles)
        for _ in range(margin):
            grown = set(current)
            for row, col in current:
                grown.update(self.neighbors(row, col))
            current = grown
        return current
