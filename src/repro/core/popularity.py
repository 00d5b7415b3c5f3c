"""Tile popularity and popularity-driven storage planning.

Viewing behaviour over 360 content is heavily skewed: most viewers watch
the same equatorial hotspots, and polar tiles are almost never inside a
viewport. Materialising the *full* quality x tile matrix therefore wastes
storage on high-quality rungs nobody fetches. This module estimates
per-tile view probability from historical traces and plans which rungs to
materialise per tile; the manifest's quality resolution (see
:meth:`repro.stream.dash.Manifest.resolve`) degrades requests for
unmaterialised rungs to the nearest stored one at delivery time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.grid import TileGrid
from repro.geometry.viewport import Viewport
from repro.predict.traces import Trace
from repro.video.quality import Quality

QualityPlan = dict[tuple[int, int], tuple[Quality, ...]]


def tile_popularity(
    traces: list[Trace],
    grid: TileGrid,
    viewport: Viewport,
    samples_per_second: float = 2.0,
) -> np.ndarray:
    """Per-tile probability of being inside some viewer's viewport.

    Returns an array of shape ``(rows, cols)``; each entry is the fraction
    of sampled (viewer, instant) pairs whose viewport contained the tile.
    """
    if not traces:
        raise ValueError("popularity estimation needs at least one trace")
    if samples_per_second <= 0:
        raise ValueError(f"sampling rate must be positive, got {samples_per_second}")
    counts = np.zeros((grid.rows, grid.cols))
    total = 0
    for trace in traces:
        sample_count = max(2, int(trace.duration * samples_per_second) + 1)
        for time in np.linspace(trace.times[0], trace.times[-1], sample_count):
            orientation = trace.orientation_at(float(time))
            for row, col in viewport.visible_tiles(orientation, grid):
                counts[row, col] += 1
            total += 1
    return counts / total


@dataclass(frozen=True)
class StoragePlanner:
    """Plans which quality rungs to materialise per tile.

    Tiles whose popularity reaches ``hot_threshold`` get the full ladder;
    the rest keep only the floor rung(s): ``cold_rungs`` counts how many
    rungs (from the bottom) cold tiles retain. The plan never leaves a
    tile without at least one rung — every tile must remain deliverable.
    """

    qualities: tuple[Quality, ...]
    hot_threshold: float = 0.2
    cold_rungs: int = 1

    def __post_init__(self) -> None:
        if not self.qualities:
            raise ValueError("a storage plan needs at least one quality")
        if list(self.qualities) != sorted(self.qualities, reverse=True):
            raise ValueError("qualities must be ordered best first")
        if self.hot_threshold < 0.0:
            # Thresholds above 1 are legal: they mean "nothing is hot".
            raise ValueError(f"hot threshold must be >= 0, got {self.hot_threshold}")
        if not 1 <= self.cold_rungs <= len(self.qualities):
            raise ValueError(
                f"cold tiles must keep 1..{len(self.qualities)} rungs, got {self.cold_rungs}"
            )

    def plan(self, popularity: np.ndarray, grid: TileGrid) -> QualityPlan:
        """The per-tile ladder to materialise."""
        if popularity.shape != (grid.rows, grid.cols):
            raise ValueError(
                f"popularity shape {popularity.shape} does not match grid "
                f"{grid.rows}x{grid.cols}"
            )
        cold_ladder = self.qualities[-self.cold_rungs :]
        plan: QualityPlan = {}
        for tile in grid.tiles():
            hot = popularity[tile] >= self.hot_threshold
            plan[tile] = self.qualities if hot else cold_ladder
        return plan
