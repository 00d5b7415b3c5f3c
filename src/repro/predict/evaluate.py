"""Prediction-quality metrics.

Two views of predictor quality matter to the system:

* *orientation error* — great-circle distance between predicted and true
  gaze at each horizon; the raw signal researchers report, and
* *tile scores* — whether the tiles the predictor chose to deliver in high
  quality actually covered what the viewer saw (recall), and what share
  of them the viewer saw (precision). Recall determines QoE; precision
  determines bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.grid import TileGrid
from repro.geometry.sphere import great_circle_distance
from repro.geometry.viewport import Orientation, Viewport
from repro.predict.predictors import Predictor
from repro.predict.traces import Trace


def orientation_error_by_horizon(
    predictor: Predictor,
    trace: Trace,
    horizons: list[float],
    warmup: float = 1.0,
    stride: float = 0.25,
) -> dict[float, float]:
    """Mean great-circle prediction error (radians) per horizon.

    Replays the trace through the predictor: at each evaluation instant the
    predictor has seen every sample up to that instant and predicts each
    horizon ahead; errors are averaged over instants whose target time
    still lies inside the trace.
    """
    if not horizons:
        raise ValueError("at least one horizon is required")
    predictor.reset()
    errors: dict[float, list[float]] = {h: [] for h in horizons}
    max_horizon = max(horizons)
    next_eval = trace.times[0] + warmup
    for time, theta, phi in zip(trace.times, trace.thetas, trace.phis):
        predictor.observe(float(time), Orientation(float(theta), float(phi)))
        if time < next_eval or time + max_horizon > trace.times[-1]:
            continue
        next_eval = time + stride
        for horizon in horizons:
            predicted = predictor.predict(float(time) + horizon)
            truth = trace.orientation_at(float(time) + horizon)
            errors[horizon].append(
                great_circle_distance(predicted.theta, predicted.phi, truth.theta, truth.phi)
            )
    return {
        horizon: float(np.mean(values)) if values else float("nan")
        for horizon, values in errors.items()
    }


@dataclass(frozen=True)
class TileScores:
    """Aggregate tile-prediction quality over a trace replay."""

    recall: float  # fraction of truly-visible tiles that were predicted
    precision: float  # fraction of predicted tiles that became visible
    mean_predicted: float  # average predicted-set size, in tiles
    evaluations: int


def tile_prediction_scores(
    predictor: Predictor,
    trace: Trace,
    grid: TileGrid,
    viewport: Viewport,
    horizon: float,
    margin: int = 1,
    warmup: float = 1.0,
    stride: float = 0.5,
) -> TileScores:
    """Replay a trace and score the predicted-visible tile sets.

    At each evaluation instant the predictor proposes the tiles to deliver
    in high quality for playback at ``time + horizon``; the truth is the
    viewer's actual visible-tile set at that playback time.
    """
    predictor.reset()
    hits = 0
    visible_total = 0
    predicted_total = 0
    evaluations = 0
    next_eval = trace.times[0] + warmup
    for time, theta, phi in zip(trace.times, trace.thetas, trace.phis):
        predictor.observe(float(time), Orientation(float(theta), float(phi)))
        if time < next_eval or time + horizon > trace.times[-1]:
            continue
        next_eval = time + stride
        predicted = predictor.predict_tiles(float(time) + horizon, grid, viewport, margin)
        truth_orientation = trace.orientation_at(float(time) + horizon)
        truth = viewport.visible_tiles(truth_orientation, grid)
        hits += len(predicted & truth)
        visible_total += len(truth)
        predicted_total += len(predicted)
        evaluations += 1
    if evaluations == 0:
        raise ValueError("trace too short for the requested horizon/warmup")
    return TileScores(
        recall=hits / visible_total if visible_total else float("nan"),
        precision=hits / predicted_total if predicted_total else 0.0,
        mean_predicted=predicted_total / evaluations,
        evaluations=evaluations,
    )
