"""E9 — ablation: ladder span vs. achievable savings.

EXPERIMENTS.md's deviation #2: the quantiser-only ladder spans ~4x, capping
predictive savings near 53 %. Real ladders add resolution-scaled rungs to
widen the gap; this ablation compares the quantiser-only floor (LOWEST)
with the half-resolution THUMBNAIL rung as the background quality and
shows the headline number crossing the paper's 60 %.
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
GRID = TileGrid(4, 8)
LADDERS = [
    ("quantiser-only floor", (Quality.HIGH, Quality.LOWEST)),
    ("half-resolution floor", (Quality.HIGH, Quality.THUMBNAIL)),
]


def run_ladder(db, name, qualities, trace):
    config = IngestConfig(grid=GRID, qualities=qualities, gop_frames=10, fps=FPS)
    frames = synthetic_video(
        "venice", width=WIDTH, height=HEIGHT, fps=FPS, duration=DURATION, seed=9
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
                evaluate_quality=True,
            ),
        ),
    )
    floor_sphere = manifest.full_sphere_size(0, qualities[-1])
    top_sphere = manifest.full_sphere_size(0, Quality.HIGH)
    return naive, predictive, top_sphere / floor_sphere


@pytest.mark.benchmark(group="e9")
def test_e9_ladder_span(benchmark, tmp_path):
    db = VisualCloud(tmp_path)
    trace = ViewerPopulation(seed=42).trace(20, DURATION, rate=10.0)
    rows = []
    savings = {}
    for label, qualities in LADDERS:
        naive, predictive, span = run_ladder(db, label.split()[0], qualities, trace)
        saved = predictive.bytes_saved_vs(naive)
        savings[label] = saved
        rows.append(
            {
                "ladder": label,
                "span_x": round(span, 1),
                "naive_bytes": naive.total_bytes,
                "predictive_bytes": predictive.total_bytes,
                "savings_%": round(100 * saved, 1),
                "viewport_psnr_db": round(predictive.mean_viewport_psnr, 1),
            }
        )
    emit_table("E9: ladder span vs savings", rows, RESULTS_DIR / "e9_ladder.txt")

    # Shape checks: the wider ladder pushes savings to the paper's
    # "up to 60 %" headline while the viewport (served at HIGH either
    # way) stays intact.
    assert savings["half-resolution floor"] > savings["quantiser-only floor"]
    assert savings["half-resolution floor"] > 0.55
    assert rows[1]["viewport_psnr_db"] > 45

    benchmark.pedantic(
        run_ladder,
        args=(VisualCloud(tmp_path / "timed"), "timed", LADDERS[1][1], trace),
        rounds=1,
        iterations=1,
    )
