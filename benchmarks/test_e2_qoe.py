"""E2 — QoE: the bytes saved must not come out of the viewport.

The demonstration's second claim: predictive tiled delivery preserves
what the viewer actually sees. Uniform adaptation saves a similar byte
count (E1) but pays with degraded viewport pixels; predictive delivery
keeps the viewport at top quality and degrades only the tiles behind the
viewer's head. Metrics: viewport PSNR relative to the naive render,
fraction of viewed tiles delivered at the ladder top, stall time, and
quality-switch frequency.
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

from bench_config import RESULTS_DIR

VIDEO = "venice"

POLICIES = [
    ("naive", lambda: NaiveFullQuality(), {}),
    ("uniform", lambda: UniformAdaptive(), {}),
    ("predictive", lambda: PredictiveTilingPolicy(), {}),
    ("predictive (markov)", lambda: PredictiveTilingPolicy(), {"predictor": "markov"}),
]


def run(db, trace, rate, factory, overrides):
    config = SessionConfig(
        policy=factory(),
        bandwidth=ConstantBandwidth(rate),
        predictor=overrides.get("predictor", "static"),
        evaluate_quality=True,
    )
    return db.serve(VIDEO, (trace, config))


@pytest.mark.benchmark(group="e2")
def test_e2_viewport_quality(benchmark, bench_db, viewer_trace, naive_rate):
    rate = naive_rate[VIDEO]
    reports = {}
    rows = []
    for label, factory, overrides in POLICIES:
        report = run(bench_db, viewer_trace, rate, factory, overrides)
        reports[label] = report
        rows.append(
            {
                "policy": label,
                "bytes": report.total_bytes,
                "viewport_psnr_db": round(report.mean_viewport_psnr, 1),
                "visible_at_best_%": round(100 * report.mean_visible_at_best, 1),
                "stalls_s": round(report.stall_time, 2),
                "quality_switches": report.quality_switches,
            }
        )
    emit_table("E2: viewport QoE by policy", rows, RESULTS_DIR / "e2_qoe.txt")

    naive = reports["naive"]
    uniform = reports["uniform"]
    predictive = reports["predictive"]

    # Naive defines the quality ceiling (measured against itself).
    assert naive.mean_viewport_psnr == pytest.approx(99.0)
    # Uniform pays for its byte savings with viewport quality ...
    assert uniform.mean_viewport_psnr < naive.mean_viewport_psnr - 5
    # ... while predictive delivery keeps the viewport near the ceiling
    # (better than uniform's whole-sphere degradation) at similar bytes.
    assert predictive.mean_viewport_psnr > uniform.mean_viewport_psnr + 3
    assert predictive.mean_visible_at_best > 0.75
    assert predictive.total_bytes < naive.total_bytes

    benchmark.pedantic(
        run,
        args=(bench_db, viewer_trace, rate, lambda: PredictiveTilingPolicy(), {}),
        rounds=1,
        iterations=1,
    )
