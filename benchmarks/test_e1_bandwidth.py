"""E1 — the headline figure: delivery bandwidth per policy.

Reproduces the demonstration's central claim: predictive tiled delivery
cuts bytes sent by up to ~60% versus naive full-quality sphere delivery,
with un-tiled adaptive streaming unable to close the gap without giving
up viewport quality. One row per (video, policy); savings are relative
to the naive baseline on the same video and trace, raw and matched (a
window earns its savings only if every tile the viewer saw arrived at the
top rung — the paper's "no reduction in quality" half).
"""

from __future__ import annotations

import pytest

from repro import (
    ConstantBandwidth,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    SessionConfig,
    UniformAdaptive,
)
from repro.bench.harness import emit_table

from bench_config import RESULTS_DIR, VIDEOS


POLICIES = [
    ("naive", lambda: NaiveFullQuality(), {}),
    ("uniform", lambda: UniformAdaptive(), {}),
    ("predictive", lambda: PredictiveTilingPolicy(), {}),
    ("predictive (markov)", lambda: PredictiveTilingPolicy(), {"predictor": "markov"}),
    ("predictive (oracle)", lambda: PredictiveTilingPolicy(), {"predictor": "oracle"}),
]


def run_policy(db, video, trace, rate, label, policy_factory, overrides):
    config = SessionConfig(
        policy=policy_factory(),
        bandwidth=ConstantBandwidth(rate),
        predictor=overrides.get("predictor", "static"),
    )
    return db.serve(video, (trace, config))


@pytest.mark.benchmark(group="e1")
def test_e1_bandwidth_by_policy(benchmark, bench_db, viewer_trace, naive_rate):
    rows = []
    reports = {}
    for video in VIDEOS:
        rate = naive_rate[video]
        for label, factory, overrides in POLICIES:
            report = run_policy(
                bench_db, video, viewer_trace, rate, label, factory, overrides
            )
            reports[(video, label)] = report
        baseline = reports[(video, "naive")]
        for label, _, _ in POLICIES:
            report = reports[(video, label)]
            naive_bytes = sum(record.naive_bytes for record in report.records)
            rows.append(
                {
                    "video": video,
                    "policy": label,
                    "bytes": report.total_bytes,
                    "savings_vs_naive_%": round(100 * report.bytes_saved_vs(baseline), 1),
                    "matched_saved_%": round(100 * report.matched_bytes_saved / naive_bytes, 1),
                    "out_of_view_bytes": report.out_of_view_bytes,
                    "stalls_s": round(report.stall_time, 2),
                }
            )
    emit_table("E1: delivered bytes by policy", rows, RESULTS_DIR / "e1_bandwidth.txt")

    # Shape checks: the figure's qualitative claims must hold.
    for video in VIDEOS:
        naive = reports[(video, "naive")].total_bytes
        predictive = reports[(video, "predictive")]
        assert predictive.total_bytes < 0.65 * naive, f"{video}: expected >35% savings"
        # The oracle ships exactly the true visible set: far below naive,
        # below the hedged forecast, within 20 % of the predictive row, and
        # every window of it is matched.
        oracle = reports[(video, "predictive (oracle)")]
        assert oracle.total_bytes < 0.65 * naive
        assert oracle.total_bytes < predictive.total_bytes
        assert 0.8 * predictive.total_bytes < oracle.total_bytes < 1.2 * predictive.total_bytes
        assert oracle.matched_bytes_saved == naive - oracle.total_bytes
        # Matched savings never exceed raw savings.
        assert 0 <= predictive.matched_bytes_saved <= naive - predictive.total_bytes

    # Timed kernel: one full predictive session on the first video.
    video = VIDEOS[0]
    benchmark.pedantic(
        run_policy,
        args=(
            bench_db,
            video,
            viewer_trace,
            naive_rate[video],
            "predictive",
            lambda: PredictiveTilingPolicy(),
            {},
        ),
        rounds=1,
        iterations=1,
    )
