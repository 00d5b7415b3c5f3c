"""Projection analysis: why equirectangular storage oversamples the poles.

Run:  python examples/projection_analysis.py

Quantifies the nonuniform-sampling problem the paper's data model calls
out: an equirectangular raster spends the same pixels on every latitude
row even though polar rows cover almost no solid angle. Prints the
sampling-density profile beside a cubemap's known bound at an equal pixel
budget, and shows where codec bytes go by latitude — plus the tile-popularity heat
map that motivates popularity-planned storage.
"""

import math

import numpy as np

from repro.geometry import EquirectangularProjection, TileGrid, Viewport
from repro.core.popularity import tile_popularity
from repro.video.frame import Frame
from repro.video.gop import encode_gop
from repro.video.quality import Quality
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

WIDTH, HEIGHT = 256, 128


def density_profile() -> None:
    projection = EquirectangularProjection(WIDTH, HEIGHT)
    density = projection.sampling_density()
    print("equirectangular sampling density by latitude (equator = 1.0):")
    for row in range(0, HEIGHT, HEIGHT // 8):
        _, phi = projection.pixel_to_angle(0, row)
        latitude = 90 - math.degrees(phi)
        bar = "#" * min(60, int(density[row]))
        print(f"  {latitude:+6.1f} deg  density {density[row]:7.2f}  {bar}")
    # A cubemap with the same pixel budget: 6 * n^2 = W * H.
    face = int(math.sqrt(WIDTH * HEIGHT / 6))
    print(
        f"\ncubemap at the same budget: 6 faces of {face}x{face}; worst/best "
        "texel solid-angle ratio ~ 1.7 (vs unbounded for equirectangular)."
    )


def bytes_by_latitude() -> None:
    frames = list(
        synthetic_video("venice", width=WIDTH, height=HEIGHT, fps=8, duration=1, seed=3)
    )
    grid = TileGrid(4, 8)
    print("\nencoded bytes by latitude band (same content everywhere):")
    tile_height = HEIGHT // grid.rows
    tile_width = WIDTH // grid.cols
    for row in range(grid.rows):
        total = 0
        for col in range(grid.cols):
            x0, y0 = col * tile_width, row * tile_height
            tile_frames = [
                frame.crop(x0, y0, x0 + tile_width, y0 + tile_height)
                for frame in frames
            ]
            total += len(encode_gop(tile_frames, Quality.HIGH))
        rect = grid.rect(row, 0)
        band = f"phi {math.degrees(rect.phi0):5.1f}-{math.degrees(rect.phi1):5.1f} deg"
        print(f"  {band}: {total:6d} B for {2 * math.pi:.2f} rad of azimuth")


def popularity_heatmap() -> None:
    grid = TileGrid(4, 8)
    traces = ViewerPopulation(seed=9).traces(8, duration=20.0, rate=5.0)
    popularity = tile_popularity(traces, grid, Viewport())
    shades = " .:-=+*#%@"
    print("\ntile popularity over 8 viewers (rows = latitude, cols = azimuth):")
    for row in range(grid.rows):
        cells = "".join(
            shades[min(len(shades) - 1, int(popularity[row, col] * (len(shades) - 1) + 0.5))]
            for col in range(grid.cols)
        )
        print(f"  |{cells}|")
    print(
        "  equatorial hotspots dominate — the skew popularity-planned\n"
        "  storage (repro.core.popularity) converts into storage savings."
    )


def main() -> None:
    density_profile()
    bytes_by_latitude()
    popularity_heatmap()


if __name__ == "__main__":
    main()
