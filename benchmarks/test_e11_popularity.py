"""E11 — extension ablation: popularity-driven partial storage.

E4 prices the full quality x tile matrix. Viewing behaviour is skewed —
most viewers watch the same equatorial hotspots — so the storage manager
can skip high-quality rungs for tiles nobody looks at, degrading the rare
request to the stored floor. This ablation sweeps the hotness threshold
and reports storage saved against the QoE paid by held-out viewers.
"""

from __future__ import annotations

import pytest

from repro import (
    ConstantBandwidth,
    IngestConfig,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    Viewport,
    VisualCloud,
)
from repro.bench.harness import emit_table
from repro.core.popularity import StoragePlanner, tile_popularity
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

from bench_config import RESULTS_DIR

WIDTH, HEIGHT = 256, 128
FPS = 10.0
DURATION = 8.0
GRID = TileGrid(4, 8)
QUALITIES = (Quality.HIGH, Quality.LOWEST)
THRESHOLDS = [
    ("full matrix", None),
    ("hot >= 5%", 0.05),
    ("hot >= 20%", 0.20),
    ("hot >= 60%", 0.60),
]


def build_store(db, name, threshold, popularity):
    plan = (
        None
        if threshold is None
        else StoragePlanner(QUALITIES, hot_threshold=threshold).plan(popularity, GRID)
    )
    config = IngestConfig(grid=GRID, qualities=QUALITIES, gop_frames=10, fps=FPS)
    frames = synthetic_video(
        "venice", width=WIDTH, height=HEIGHT, fps=FPS, duration=DURATION, seed=21
    )
    db.ingest(name, frames, config, quality_plan=plan)
    return db.storage.total_bytes(name)


@pytest.mark.benchmark(group="e11")
def test_e11_popularity_storage(benchmark, tmp_path):
    db = VisualCloud(tmp_path)
    population = ViewerPopulation(seed=42)
    train_users, test_users = population.split(16, train_fraction=0.75)
    training = [population.trace(user, DURATION, rate=10.0) for user in train_users]
    held_out = [population.trace(user, DURATION, rate=10.0) for user in test_users]
    popularity = tile_popularity(training, GRID, Viewport())

    rows = []
    results = {}
    full_bytes = None
    for label, threshold in THRESHOLDS:
        name = f"v{(threshold or 0) * 100:03.0f}"
        stored = build_store(db, name, threshold, popularity)
        if full_bytes is None:
            full_bytes = stored
        manifest = db.storage.build_manifest(name)
        rate = sum(
            manifest.full_sphere_size(window, Quality.HIGH)
            for window in range(manifest.window_count)
        ) / manifest.duration
        at_best = 0.0
        psnr_total = 0.0
        for trace in held_out:
            report = db.serve(
                name,
                (
                    trace,
                    SessionConfig(
                        policy=PredictiveTilingPolicy(),
                        bandwidth=ConstantBandwidth(rate),
                        predictor="static",
                        evaluate_quality=True,
                    ),
                ),
            )
            at_best += report.mean_visible_at_best / len(held_out)
            psnr_total += report.mean_viewport_psnr / len(held_out)
        results[label] = (stored, at_best)
        rows.append(
            {
                "plan": label,
                "stored_bytes": stored,
                "storage_saved_%": round(100 * (1 - stored / full_bytes), 1),
                "visible_at_best_%": round(100 * at_best, 1),
                "viewport_psnr_db": round(psnr_total, 1),
            }
        )
    emit_table(
        "E11: popularity-planned storage vs QoE", rows, RESULTS_DIR / "e11_popularity.txt"
    )

    # Shape checks: storage drops monotonically with the threshold, and a
    # behaviour-matched threshold saves real storage at modest QoE cost.
    stored_sizes = [results[label][0] for label, _ in THRESHOLDS]
    assert stored_sizes == sorted(stored_sizes, reverse=True)
    full_quality = results["full matrix"][1]
    modest = results["hot >= 5%"][1]
    assert results["hot >= 5%"][0] < full_bytes
    assert modest > full_quality - 0.10  # viewers barely notice
    # The aggressive plan must actually hurt (the metric is honest).
    assert results["hot >= 60%"][1] < full_quality

    benchmark.pedantic(
        tile_popularity, args=(training[:2], GRID, Viewport()), rounds=1, iterations=1
    )
