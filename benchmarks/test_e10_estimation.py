"""E10 — ablation: client-side throughput estimation under volatility.

The delivery experiments elsewhere let the policy read the link's true
rate (an oracle). Real clients estimate from completed transfers. This
ablation streams over a volatile (random-walk) link with each estimator
and reports stalls and delivered bytes — how much of the system's
performance depends on knowing the bandwidth.
"""

from __future__ import annotations

import pytest

from repro import PredictiveTilingPolicy, SessionConfig, TraceBandwidth
from repro.bench.harness import emit_table
from repro.stream.estimator import (
    EwmaEstimator,
    HarmonicMeanEstimator,
    LastSampleEstimator,
)
from repro.workloads.users import ViewerPopulation

from bench_config import DURATION, RESULTS_DIR

VIDEO = "venice"

ESTIMATORS = [
    ("oracle (true rate)", lambda: None),
    ("harmonic mean (w=5)", lambda: HarmonicMeanEstimator(window=5)),
    ("EWMA (a=0.3)", lambda: EwmaEstimator(alpha=0.3)),
    ("last sample", lambda: LastSampleEstimator()),
]


@pytest.mark.benchmark(group="e10")
def test_e10_throughput_estimation(benchmark, bench_db, naive_rate):
    population = ViewerPopulation(seed=33)
    traces = population.traces(3, DURATION, rate=10.0)
    mean_rate = naive_rate[VIDEO] * 0.45  # constrained: estimation errors bind
    rows = []
    stalls = {}
    for label, factory in ESTIMATORS:
        total_stall = 0.0
        total_bytes = 0
        at_best = 0.0
        for seed, trace in enumerate(traces):
            link = TraceBandwidth.random_walk(
                DURATION + 5, mean_rate, volatility=0.5, step=1.0, seed=seed
            )
            config = SessionConfig(
                policy=PredictiveTilingPolicy(),
                bandwidth=link,
                predictor="static",
                margin=0,
                estimator=factory(),
            )
            report = bench_db.serve(VIDEO, (trace, config))
            total_stall += report.stall_time
            total_bytes += report.total_bytes
            at_best += report.mean_visible_at_best / len(traces)
        stalls[label] = total_stall
        rows.append(
            {
                "estimator": label,
                "stall_s": round(total_stall, 2),
                "bytes": total_bytes,
                "visible_at_best_%": round(100 * at_best, 1),
            }
        )
    emit_table(
        "E10: throughput estimation under a volatile link",
        rows,
        RESULTS_DIR / "e10_estimation.txt",
    )

    # Shape checks: realistic estimators stay within a workable distance
    # of the oracle; every session completed for every estimator.
    for label in stalls:
        assert stalls[label] < DURATION * len(traces) * 0.5, label

    trace = traces[0]
    link = TraceBandwidth.random_walk(DURATION + 5, mean_rate, seed=0)
    benchmark.pedantic(
        bench_db.serve,
        args=(
            VIDEO,
            (
                trace,
                SessionConfig(
                    policy=PredictiveTilingPolicy(),
                    bandwidth=link,
                    predictor="static",
                    margin=0,
                    estimator=HarmonicMeanEstimator(),
                ),
            ),
        ),
        rounds=1,
        iterations=1,
    )
