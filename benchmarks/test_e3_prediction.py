"""E3 — head-orientation prediction accuracy by horizon.

The predictor study behind the demo's server design: mean great-circle
error (degrees) and predicted-tile recall/overhead for each predictor at
delivery-relevant horizons. The measured shape: everything is accurate
at sub-second horizons; pure velocity extrapolation chases fixation
jitter and loses to the static baseline everywhere; the trained Markov
model buys the best tile precision; the oracle bounds what is achievable.
"""

from __future__ import annotations

import math

import pytest

from repro.bench.harness import emit_table
from repro.geometry.viewport import Viewport
from repro.predict.evaluate import orientation_error_by_horizon, tile_prediction_scores
from repro.predict.predictors import (
    DeadReckoningPredictor,
    MarkovPredictor,
    OraclePredictor,
    StaticPredictor,
)
from repro.workloads.users import ViewerPopulation

from bench_config import GRID, RESULTS_DIR

HORIZONS = [0.5, 1.0, 2.0, 4.0]
DURATION = 60.0
TRAIN_USERS = list(range(6))
TEST_USERS = [20, 21, 22]


def build_predictors(training_traces):
    markov = MarkovPredictor(GRID)
    markov.train(training_traces)
    return [
        ("static", StaticPredictor()),
        ("deadreckoning", DeadReckoningPredictor()),
        ("markov", markov),
    ]


@pytest.mark.benchmark(group="e3")
def test_e3_prediction_accuracy(benchmark):
    population = ViewerPopulation(seed=7)
    training = [population.trace(user, DURATION, rate=10.0) for user in TRAIN_USERS]
    test_traces = [population.trace(user, DURATION, rate=10.0) for user in TEST_USERS]
    predictors = build_predictors(training)

    error_rows = []
    all_errors = {}
    for label, predictor in predictors + [("oracle", None)]:
        per_horizon = {horizon: [] for horizon in HORIZONS}
        for trace in test_traces:
            instance = OraclePredictor(trace) if label == "oracle" else predictor
            errors = orientation_error_by_horizon(instance, trace, HORIZONS)
            for horizon, value in errors.items():
                per_horizon[horizon].append(value)
        means = {h: sum(v) / len(v) for h, v in per_horizon.items()}
        all_errors[label] = means
        error_rows.append(
            {"predictor": label}
            | {f"err@{h}s_deg": round(math.degrees(means[h]), 1) for h in HORIZONS}
        )
    emit_table(
        "E3a: mean orientation error by horizon", error_rows, RESULTS_DIR / "e3a_error.txt"
    )

    # The Markov model hedges through its probability coverage, so it runs
    # margin-free; the parametric predictors hedge with a one-ring margin.
    tile_rows = []
    recalls = {}
    viewport = Viewport()
    margins = {"markov": 0}
    for label, predictor in predictors + [("oracle", None)]:
        margin = margins.get(label, 1)
        scores = []
        for trace in test_traces:
            instance = OraclePredictor(trace) if label == "oracle" else predictor
            scores.append(
                tile_prediction_scores(
                    instance, trace, GRID, viewport, horizon=1.0, margin=margin
                )
            )
        recall = sum(s.recall for s in scores) / len(scores)
        precision = sum(s.precision for s in scores) / len(scores)
        mean_tiles = sum(s.mean_predicted for s in scores) / len(scores)
        recalls[label] = recall
        tile_rows.append(
            {
                "predictor": label,
                "margin": margin,
                "recall_%": round(100 * recall, 1),
                "precision_%": round(100 * precision, 1),
                "tiles_sent": round(mean_tiles, 1),
            }
        )
    emit_table(
        "E3b: predicted-tile recall at 1s horizon",
        tile_rows,
        RESULTS_DIR / "e3b_tiles.txt",
    )

    # Shape checks.
    for label, means in all_errors.items():
        values = [means[h] for h in HORIZONS]
        assert values == sorted(
            values, key=lambda v: round(v, 9)
        ) or label == "oracle", f"{label}: error must grow with horizon"
    assert all_errors["oracle"][4.0] < 1e-6
    # Short horizons are much easier than long ones for every real predictor.
    for label in ("static", "deadreckoning", "markov"):
        assert all_errors[label][0.5] < all_errors[label][4.0] / 1.5
    # Tile recall with hedging is high for all predictors at 1 s.
    assert min(recalls.values()) > 0.8
    assert recalls["oracle"] == pytest.approx(1.0)

    trace = test_traces[0]
    benchmark.pedantic(
        orientation_error_by_horizon,
        args=(StaticPredictor(), trace, HORIZONS),
        rounds=1,
        iterations=1,
    )
