"""Shared benchmark fixtures: one ingested database reused across the E-series.

The heavy work — procedurally generating the three reference-video
stand-ins and encoding them at the full tiling/quality matrix — happens
once per pytest session. Experiments that need custom segmentations
(E4, E7) ingest their own smaller variants.
"""

from __future__ import annotations

import pytest

from repro import IngestConfig, Quality, VisualCloud
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

from bench_config import (
    DURATION,
    FPS,
    GOP_FRAMES,
    GRID,
    HEIGHT,
    QUALITIES,
    TEST_USER,
    TRAIN_USERS,
    VIDEOS,
    WIDTH,
)


@pytest.fixture(scope="session")
def bench_db(tmp_path_factory) -> VisualCloud:
    """A database holding all three reference videos, predictor trained."""
    db = VisualCloud(tmp_path_factory.mktemp("benchdb"))
    config = IngestConfig(
        grid=GRID, qualities=QUALITIES, gop_frames=GOP_FRAMES, fps=FPS
    )
    for index, name in enumerate(VIDEOS):
        frames = synthetic_video(
            name, width=WIDTH, height=HEIGHT, fps=FPS, duration=DURATION, seed=100 + index
        )
        db.ingest(name, frames, config)
    population = ViewerPopulation(seed=42)
    training = [population.trace(user, DURATION, rate=10.0) for user in range(TRAIN_USERS)]
    for name in VIDEOS:
        db.train_predictor(name, training)
    return db


@pytest.fixture(scope="session")
def viewer_trace():
    """The held-out evaluation viewer's head-movement trace."""
    return ViewerPopulation(seed=42).trace(TEST_USER, DURATION, rate=10.0)


@pytest.fixture(scope="session")
def naive_rate(bench_db) -> dict[str, float]:
    """Per-video bytes/second required by naive full-quality delivery."""
    rates = {}
    for name in VIDEOS:
        manifest = bench_db.storage.build_manifest(name)
        total = sum(
            manifest.full_sphere_size(window, Quality.HIGH)
            for window in range(manifest.window_count)
        )
        rates[name] = total / manifest.duration
    return rates
