"""Unit tests for prediction-quality metrics."""

import math

import pytest

from repro.geometry.grid import TileGrid
from repro.geometry.viewport import Viewport
from repro.predict.evaluate import orientation_error_by_horizon, tile_prediction_scores
from repro.predict.predictors import OraclePredictor, StaticPredictor
from repro.predict.traces import HeadMovementModel, circular_pan_trace


class TestOrientationError:
    def test_oracle_has_zero_error(self):
        trace = circular_pan_trace(10.0, rate=10.0)
        errors = orientation_error_by_horizon(OraclePredictor(trace), trace, [0.5, 2.0])
        assert errors[0.5] == pytest.approx(0.0, abs=1e-6)
        assert errors[2.0] == pytest.approx(0.0, abs=1e-6)

    def test_static_error_grows_with_horizon(self):
        trace = circular_pan_trace(20.0, rate=10.0, period=10.0)
        errors = orientation_error_by_horizon(StaticPredictor(), trace, [0.5, 1.0, 2.0])
        assert errors[0.5] < errors[1.0] < errors[2.0]

    def test_known_error_for_constant_pan(self):
        # A 10 s period pan moves 2*pi/10 rad/s on the equator; static
        # prediction at horizon h is off by exactly h * omega.
        trace = circular_pan_trace(20.0, rate=20.0, period=10.0)
        errors = orientation_error_by_horizon(StaticPredictor(), trace, [1.0])
        assert errors[1.0] == pytest.approx(2 * math.pi / 10, rel=0.05)

    def test_requires_horizons(self):
        trace = circular_pan_trace(5.0)
        with pytest.raises(ValueError):
            orientation_error_by_horizon(StaticPredictor(), trace, [])

    def test_too_long_horizon_gives_nan(self):
        trace = circular_pan_trace(2.0, rate=10.0)
        errors = orientation_error_by_horizon(StaticPredictor(), trace, [10.0])
        assert math.isnan(errors[10.0])


class TestTilePredictionScores:
    def test_oracle_has_full_recall(self):
        trace = HeadMovementModel().generate(10.0, rate=10.0, seed=4)
        grid = TileGrid(4, 4)
        scores = tile_prediction_scores(
            OraclePredictor(trace), trace, grid, Viewport(), horizon=1.0, margin=0
        )
        assert scores.recall == pytest.approx(1.0)

    def test_margin_trades_precision_for_recall(self):
        trace = HeadMovementModel().generate(15.0, rate=10.0, seed=6)
        grid = TileGrid(6, 6)
        viewport = Viewport(fov_theta=1.0, fov_phi=1.0)
        tight = tile_prediction_scores(
            StaticPredictor(), trace, grid, viewport, horizon=1.0, margin=0
        )
        loose = tile_prediction_scores(
            StaticPredictor(), trace, grid, viewport, horizon=1.0, margin=1
        )
        assert loose.recall >= tight.recall
        assert loose.mean_predicted > tight.mean_predicted

    def test_too_short_trace_raises(self):
        trace = circular_pan_trace(0.5, rate=10.0)
        with pytest.raises(ValueError):
            tile_prediction_scores(
                StaticPredictor(), trace, TileGrid(2, 2), Viewport(), horizon=5.0
            )

    def test_evaluation_count_positive(self):
        trace = circular_pan_trace(10.0, rate=10.0)
        scores = tile_prediction_scores(
            StaticPredictor(), trace, TileGrid(4, 4), Viewport(), horizon=1.0
        )
        assert scores.evaluations > 0
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
