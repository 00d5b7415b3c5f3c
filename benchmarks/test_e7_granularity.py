"""E7 — ablation: segment duration x tiling granularity.

The design-choice sweep DESIGN.md calls out: shorter delivery windows
mean shorter prediction horizons (better recall, more savings headroom)
but more per-segment overhead; finer grids track the viewport more
tightly but add per-tile cost. Reports bytes saved vs. naive and the
fraction of viewed tiles at top quality for each configuration.
"""

from __future__ import annotations

import pytest

from repro import (
    ConstantBandwidth,
    IngestConfig,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    VisualCloud,
)
from repro.bench.harness import emit_table
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

from bench_config import RESULTS_DIR

WIDTH, HEIGHT = 256, 128
FPS = 10.0
DURATION = 8.0
GOP_CHOICES = [5, 10, 20]  # 0.5 s, 1 s, 2 s windows
GRID_CHOICES = [TileGrid(2, 4), TileGrid(4, 8)]
QUALITIES = (Quality.HIGH, Quality.LOWEST)


def run_config(db, name, trace, gop_frames, grid):
    config = IngestConfig(grid=grid, qualities=QUALITIES, gop_frames=gop_frames, fps=FPS)
    frames = synthetic_video(
        "venice", width=WIDTH, height=HEIGHT, fps=FPS, duration=DURATION, seed=11
    )
    db.ingest(name, frames, config)
    manifest = db.storage.build_manifest(name)
    rate = (
        sum(
            manifest.full_sphere_size(window, Quality.HIGH)
            for window in range(manifest.window_count)
        )
        / manifest.duration
    )
    naive = db.serve(
        name,
        (trace, SessionConfig(policy=NaiveFullQuality(), bandwidth=ConstantBandwidth(rate))),
    )
    predictive = db.serve(
        name,
        (
            trace,
            SessionConfig(
                policy=PredictiveTilingPolicy(),
                bandwidth=ConstantBandwidth(rate),
                predictor="static",
            ),
        ),
    )
    return naive, predictive


@pytest.mark.benchmark(group="e7")
def test_e7_granularity_sweep(benchmark, tmp_path):
    db = VisualCloud(tmp_path)
    trace = ViewerPopulation(seed=42).trace(9, DURATION, rate=10.0)
    rows = []
    results = {}
    for grid in GRID_CHOICES:
        for gop_frames in GOP_CHOICES:
            name = f"g{grid.rows}x{grid.cols}_w{gop_frames}"
            naive, predictive = run_config(db, name, trace, gop_frames, grid)
            savings = predictive.bytes_saved_vs(naive)
            results[(f"{grid.rows}x{grid.cols}", gop_frames)] = savings
            rows.append(
                {
                    "grid": f"{grid.rows}x{grid.cols}",
                    "window_s": gop_frames / FPS,
                    "naive_bytes": naive.total_bytes,
                    "predictive_bytes": predictive.total_bytes,
                    "savings_%": round(100 * savings, 1),
                    "visible_at_best_%": round(
                        100 * predictive.mean_visible_at_best, 1
                    ),
                }
            )
    emit_table(
        "E7: savings by window duration x grid", rows, RESULTS_DIR / "e7_granularity.txt"
    )

    # Shape checks: the finer grid saves more at every window duration
    # (smaller high-quality footprint), and savings are positive everywhere.
    for gop_frames in GOP_CHOICES:
        assert results[("4x8", gop_frames)] > results[("2x4", gop_frames)]
    assert min(results.values()) > 0.15

    benchmark.pedantic(
        run_config,
        args=(VisualCloud(tmp_path / "timed"), "timed", trace, 10, TileGrid(2, 4)),
        rounds=1,
        iterations=1,
    )
