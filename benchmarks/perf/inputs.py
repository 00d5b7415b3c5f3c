"""Everything the benchmark generates, derived from ``--seed``.

The program under test receives only what these functions return:
frames, head-movement traces and request sequences. Clip seeds, viewer
ids and request orders all move with the seed, so a claim made on seed 0
can be re-checked on the held-out seed 1.
"""

from __future__ import annotations

import random

from repro import IngestConfig, Quality, TileGrid
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

WIDTH, HEIGHT = 256, 128
FPS = 10.0
GOP_FRAMES = 10
GRID = TileGrid(4, 8)
QUALITIES = (Quality.HIGH, Quality.MEDIUM, Quality.LOWEST)
STORE_SECONDS = 6.0  # the common store: 6 windows x 32 tiles x 3 rungs = 576 segments
PROFILES = ("timelapse", "venice", "coaster")
TRAIN_USERS = 12  # the Markov prior is trained on viewers 0..11
FIRST_TEST_USER = TRAIN_USERS  # held-out viewers start here
RAW_BYTES_PER_FRAME = WIDTH * HEIGHT * 3 // 2  # luma + 4:2:0 chroma


def ingest_config() -> IngestConfig:
    """The one segmentation every store uses; ``workers`` stays at the
    program's default (what users get)."""
    return IngestConfig(grid=GRID, qualities=QUALITIES, gop_frames=GOP_FRAMES, fps=FPS)


def clip(profile: str, seconds: float, seed: int) -> list:
    """``seconds`` of a procedural 360 clip; ``seed`` picks its content."""
    return list(synthetic_video(profile, WIDTH, HEIGHT, FPS, seconds, seed=seed))


def population(seed: int) -> ViewerPopulation:
    return ViewerPopulation(seed=seed)


def request_order(paths: list[str], seed: int, zipf: bool, count: int = 8192) -> list[str]:
    """A request sequence over ``paths`` (already in canonical order).

    ``zipf``: rank^-1.1 popularity over a seeded shuffle — the shape
    viewport-adaptive delivery concentrates into (the generator
    ``repro.bench.serve._zipf_paths`` uses, re-implemented here so the
    seed is the benchmark's). Otherwise uniform: every segment equally
    likely, so a pool smaller than the store keeps evicting.
    """
    rng = random.Random(seed)
    shuffled = list(paths)
    rng.shuffle(shuffled)
    if not zipf:
        return rng.choices(shuffled, k=count)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(shuffled))]
    return rng.choices(shuffled, weights=weights, k=count)
