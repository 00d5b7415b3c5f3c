"""E13 — substrate validation: the codec's rate-distortion behaviour.

Every delivery result in this suite rests on the from-scratch codec
behaving like a codec: monotone rate-distortion per content profile,
meaningful gaps between ladder rungs, cheap P-frames on static content
and expensive ones under global motion. This experiment characterises
exactly that, per reference-content profile — the table a reviewer would
ask for before trusting E1.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import emit_table
from repro.video.frame import psnr
from repro.video.gop import decode_gop, encode_gop
from repro.video.quality import Quality
from repro.workloads.videos import synthetic_video

from bench_config import RESULTS_DIR

WIDTH, HEIGHT = 256, 128
FPS = 10.0
SECONDS = 2.0
PROFILES = ("timelapse", "venice", "coaster")


def measure(profile: str, quality: Quality) -> tuple[float, float, float]:
    """Returns (kB per second of video, mean PSNR dB, P/I byte ratio)."""
    frames = list(
        synthetic_video(profile, width=WIDTH, height=HEIGHT, fps=FPS, duration=SECONDS, seed=5)
    )
    gop = encode_gop(frames, quality)
    gop_size = len(gop)
    intra_size = len(encode_gop(frames[:1], quality))
    decoded = decode_gop(gop, WIDTH, HEIGHT, len(frames))
    scores = [psnr(a, b) for a, b in zip(frames, decoded)]
    finite = [score for score in scores if score != float("inf")]
    mean_psnr = sum(finite) / len(finite) if finite else 99.0
    predicted_per_frame = (gop_size - intra_size) / max(1, len(frames) - 1)
    return gop_size / SECONDS / 1024, mean_psnr, predicted_per_frame / intra_size


@pytest.mark.benchmark(group="e13")
def test_e13_rate_distortion(benchmark):
    rows = []
    curves: dict[str, list[tuple[float, float]]] = {}
    motion_cost: dict[str, float] = {}
    for profile in PROFILES:
        curves[profile] = []
        for quality in Quality:
            rate, quality_db, p_over_i = measure(profile, quality)
            curves[profile].append((rate, quality_db))
            if quality is Quality.HIGH:
                motion_cost[profile] = p_over_i
            rows.append(
                {
                    "profile": profile,
                    "rung": quality.label,
                    "kB_per_s": round(rate, 1),
                    "psnr_db": round(quality_db, 1),
                    "P_frame/I_frame": round(p_over_i, 3),
                }
            )
    emit_table("E13: codec rate-distortion by profile", rows, RESULTS_DIR / "e13_rd.txt")

    for profile, curve in curves.items():
        rates = [rate for rate, _ in curve]
        # Rate strictly decreases down the ladder on every profile.
        assert rates == sorted(rates, reverse=True), profile
        # The full ladder spans at least 4x in rate.
        assert rates[0] / rates[-1] > 4.0, profile
        # Distortion ordering holds for the quantiser-only rungs.
        quantiser_psnrs = [
            quality_db
            for (_, quality_db), quality in zip(curve, Quality)
            if quality.downscale == 1
        ]
        assert quantiser_psnrs == sorted(quantiser_psnrs, reverse=True), profile

    # Temporal-coding sanity: global panning (coaster) makes predicted
    # frames far more expensive than a near-static timelapse.
    assert motion_cost["coaster"] > 2.0 * motion_cost["timelapse"]

    benchmark.pedantic(measure, args=("venice", Quality.HIGH), rounds=1, iterations=1)
