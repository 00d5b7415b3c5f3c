"""E12 — extension: viewers per link under shared-bottleneck delivery.

The demo's operational pitch is scale: serve more headsets from the same
uplink. Here many viewers share one link whose capacity would carry
exactly two naive full-quality streams; the sweep counts how many viewers
each policy sustains before rebuffering appears. Predictive tiling's
byte savings convert directly into viewer capacity.
"""

from __future__ import annotations

import pytest

from repro import (
    ConstantBandwidth,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
)
from repro.bench.harness import emit_table
from repro.stream.estimator import HarmonicMeanEstimator
from repro.stream.network import SimulatedLink
from repro.workloads.users import ViewerPopulation

from bench_config import DURATION, RESULTS_DIR

VIDEO = "venice"
VIEWER_COUNTS = [2, 4, 8]


def make_sessions(count, policy_factory, use_estimator):
    population = ViewerPopulation(seed=55)
    sessions = []
    for user in range(count):
        sessions.append(
            (
                VIDEO,
                population.trace(user, DURATION, rate=10.0),
                SessionConfig(
                    policy=policy_factory(),
                    bandwidth=ConstantBandwidth(1e9),  # ignored in shared mode
                    predictor="static",
                    margin=0,
                    estimator=HarmonicMeanEstimator() if use_estimator else None,
                ),
            )
        )
    return sessions


@pytest.mark.benchmark(group="e12")
def test_e12_shared_link_capacity(benchmark, bench_db, naive_rate):
    link_capacity = 2.0 * naive_rate[VIDEO]  # room for exactly two naive viewers
    streamer = bench_db.streamer
    rows = []
    stalls = {}
    for label, factory, estimator in [
        ("naive", NaiveFullQuality, False),
        ("predictive", PredictiveTilingPolicy, True),
    ]:
        for count in VIEWER_COUNTS:
            reports = streamer.serve_all(
                make_sessions(count, factory, estimator),
                SimulatedLink(ConstantBandwidth(link_capacity)),
            )
            total_stall = sum(report.stall_time for report in reports)
            stalls[(label, count)] = total_stall
            rows.append(
                {
                    "policy": label,
                    "viewers": count,
                    "stall_s_total": round(total_stall, 2),
                    "stall_s_per_viewer": round(total_stall / count, 2),
                    "bytes_per_viewer": sum(r.total_bytes for r in reports) // count,
                    "visible_at_best_%": round(
                        100
                        * sum(r.mean_visible_at_best for r in reports)
                        / count,
                        1,
                    ),
                }
            )
    emit_table(
        "E12: viewers sharing a 2-naive-stream link", rows, RESULTS_DIR / "e12_shared.txt"
    )

    # Shape checks: at 2 viewers both policies fit; beyond, naive
    # rebuffers while predictive sustains more viewers on the same wire.
    assert stalls[("naive", 2)] < 1.0
    assert stalls[("naive", 8)] > 3.0
    assert stalls[("predictive", 4)] < stalls[("naive", 4)]
    assert stalls[("predictive", 8)] < stalls[("naive", 8)] / 2

    benchmark.pedantic(
        streamer.serve_all,
        args=(
            make_sessions(2, PredictiveTilingPolicy, True),
            SimulatedLink(ConstantBandwidth(link_capacity)),
        ),
        rounds=1,
        iterations=1,
    )
