"""Unit tests for the head-orientation predictors."""

import math

import numpy as np
import pytest

from repro.geometry.grid import TileGrid
from repro.geometry.sphere import great_circle_distance
from repro.geometry.viewport import Orientation, Viewport
from repro.predict.predictors import (
    FORECAST_SAMPLES,
    HISTORY_WINDOW,
    DeadReckoningPredictor,
    MarkovPredictor,
    OraclePredictor,
    StaticPredictor,
)
from repro.predict.traces import HeadMovementModel, Trace, circular_pan_trace


def feed(predictor, times, thetas, phis):
    for time, theta, phi in zip(times, thetas, phis):
        predictor.observe(time, Orientation(theta, phi))


class TestBaseProtocol:
    def test_requires_observation_before_predict(self):
        with pytest.raises(RuntimeError):
            StaticPredictor().predict(1.0)

    def test_observations_must_be_ordered(self):
        predictor = StaticPredictor()
        predictor.observe(1.0, Orientation(0, 1))
        with pytest.raises(ValueError):
            predictor.observe(1.0, Orientation(0, 1))

    def test_history_window_trims(self):
        predictor = StaticPredictor()
        latest = HISTORY_WINDOW + 1.0
        feed(predictor, [0.0, 0.5, latest], [0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
        assert len(predictor._history) == 1  # only the latest survives

    def test_reset_clears(self):
        predictor = StaticPredictor()
        predictor.observe(0.0, Orientation(0, 1))
        predictor.reset()
        with pytest.raises(RuntimeError):
            predictor.predict(1.0)


class TestStaticPredictor:
    def test_holds_last_pose(self):
        predictor = StaticPredictor()
        feed(predictor, [0.0, 1.0], [0.5, 0.9], [1.0, 1.1])
        predicted = predictor.predict(5.0)
        assert predicted.theta == pytest.approx(0.9)
        assert predicted.phi == pytest.approx(1.1)


class TestDeadReckoning:
    def test_extrapolates_constant_velocity(self):
        predictor = DeadReckoningPredictor()
        times = np.arange(0, 1.05, 0.1)
        feed(predictor, times, 0.5 * times, np.full_like(times, math.pi / 2))
        predicted = predictor.predict(2.0)
        assert predicted.theta == pytest.approx(1.0, abs=0.02)

    def test_single_observation_falls_back_to_static(self):
        predictor = DeadReckoningPredictor()
        predictor.observe(0.0, Orientation(1.0, 1.0))
        assert predictor.predict(3.0).theta == pytest.approx(1.0)

    def test_handles_seam_crossing_velocity(self):
        predictor = DeadReckoningPredictor()
        times = np.arange(0, 1.05, 0.1)
        thetas = (2 * math.pi - 0.2 + 0.4 * times) % (2 * math.pi)
        feed(predictor, times, thetas, np.full_like(times, math.pi / 2))
        predicted = predictor.predict(1.5)
        expected = (2 * math.pi - 0.2 + 0.4 * 1.5) % (2 * math.pi)
        assert great_circle_distance(
            predicted.theta, predicted.phi, expected, math.pi / 2
        ) < 0.05

    def test_phi_clamped_at_pole(self):
        predictor = DeadReckoningPredictor()
        times = np.arange(0, 1.05, 0.1)
        feed(predictor, times, np.zeros_like(times), np.maximum(0.5 - 0.45 * times, 0.01))
        assert predictor.predict(3.0).phi >= 0.0


class TestMarkovPredictor:
    def make_trained(self, grid=TileGrid(2, 4)) -> MarkovPredictor:
        predictor = MarkovPredictor(grid)
        corpus = HeadMovementModel().generate_corpus(4, 20.0, rate=10.0, seed=9)
        predictor.train(corpus)
        return predictor

    def test_requires_training(self):
        predictor = MarkovPredictor(TileGrid(2, 2))
        predictor.observe(0.0, Orientation(0, 1))
        with pytest.raises(RuntimeError):
            predictor.predict(1.0)

    def test_train_requires_traces(self):
        with pytest.raises(ValueError):
            MarkovPredictor(TileGrid(2, 2)).train([])

    def test_transitions_are_stochastic(self):
        predictor = self.make_trained()
        matrix = predictor.transitions
        assert matrix.shape == (8, 8)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix >= 0)

    def test_zero_horizon_predicts_current_tile(self):
        predictor = self.make_trained()
        predictor.observe(10.0, Orientation(1.0, math.pi / 2))
        predicted = predictor.predict(10.0)
        grid = predictor.grid
        assert grid.tile_of(predicted.theta, predicted.phi) == grid.tile_of(
            1.0, math.pi / 2
        )

    def test_coverage_bounds_validated(self):
        with pytest.raises(ValueError):
            MarkovPredictor(TileGrid(2, 2), coverage=0.0)

    def test_from_transitions_shares_matrix(self):
        predictor = self.make_trained()
        clone = MarkovPredictor.from_transitions(predictor.grid, predictor.transitions)
        assert clone.transitions is predictor.transitions

    def test_from_transitions_validates_shape(self):
        with pytest.raises(ValueError):
            MarkovPredictor.from_transitions(TileGrid(2, 2), np.eye(3))

    def test_predict_tiles_grid_mismatch(self):
        predictor = self.make_trained()
        predictor.observe(0.0, Orientation(0.0, 1.0))
        with pytest.raises(ValueError):
            predictor.predict_tiles(1.0, TileGrid(8, 8), Viewport())

    def test_predict_tiles_covers_probability_mass(self):
        predictor = self.make_trained()
        predictor.observe(0.0, Orientation(0.0, math.pi / 2))
        tiles = predictor.predict_tiles(0.5, predictor.grid, Viewport(), margin=0)
        assert tiles  # non-empty
        assert tiles <= set(predictor.grid.tiles())

    def test_forecast_row_zero_is_the_modal_path(self):
        predictor = self.make_trained()
        predictor.observe(0.0, Orientation(0.0, math.pi / 2))
        grid, viewport = predictor.grid, Viewport()
        instants = np.array([0.4, 0.8, 1.2])
        forecast = predictor.forecast(instants, grid, viewport)
        assert forecast.shape == (FORECAST_SAMPLES, grid.tile_count)
        modal = set().union(*(viewport.visible_tiles(predictor.predict(t), grid) for t in instants))
        assert grid.tiles_in(forecast[0]) == modal

    def test_forecast_gazes_spread_inside_the_tile(self):
        """With all mass on one tile every sample gazes inside it, each at
        its own Halton point: every footprint holds the tile, and they
        differ, where tile-centre gazes would give one footprint 48 times."""
        grid, viewport = TileGrid(4, 8), Viewport()
        predictor = MarkovPredictor.from_transitions(grid, np.eye(grid.tile_count))
        predictor.observe(0.0, Orientation(0.3, 1.2))
        forecast = predictor.forecast(np.array([1.0]), grid, viewport)
        assert forecast[:, grid.index_of(*grid.tile_of(0.3, 1.2))].all()
        assert len({row.tobytes() for row in forecast}) > 1


class TestOraclePredictor:
    def test_returns_ground_truth(self):
        trace = circular_pan_trace(10.0, rate=10.0, period=10.0)
        predictor = OraclePredictor(trace)
        predictor.observe(0.0, Orientation(0, 1))
        predicted = predictor.predict(2.5)
        truth = trace.orientation_at(2.5)
        assert predicted.theta == pytest.approx(truth.theta)
        assert predicted.phi == pytest.approx(truth.phi)


class TestPredictTiles:
    def test_margin_grows_set(self):
        predictor = StaticPredictor()
        predictor.observe(0.0, Orientation(math.pi, math.pi / 2))
        grid = TileGrid(8, 8)
        narrow_viewport = Viewport(fov_theta=0.5, fov_phi=0.5)
        without = predictor.predict_tiles(1.0, grid, narrow_viewport, margin=0)
        with_margin = predictor.predict_tiles(1.0, grid, narrow_viewport, margin=1)
        assert without < with_margin

    def test_accuracy_on_predictable_motion(self):
        """Dead reckoning on a constant pan should beat static at 2 s."""
        trace = circular_pan_trace(20.0, rate=10.0, period=10.0)
        static_error = self._mean_error(StaticPredictor(), trace)
        reckoning_error = self._mean_error(DeadReckoningPredictor(), trace)
        assert reckoning_error < static_error / 3

    @staticmethod
    def _mean_error(predictor, trace, horizon=2.0) -> float:
        errors = []
        for index in range(len(trace)):
            time = float(trace.times[index])
            predictor.observe(
                time, Orientation(float(trace.thetas[index]), float(trace.phis[index]))
            )
            target = time + horizon
            if index >= 10 and target <= trace.times[-1]:
                predicted = predictor.predict(target)
                truth = trace.orientation_at(target)
                errors.append(
                    great_circle_distance(
                        predicted.theta, predicted.phi, truth.theta, truth.phi
                    )
                )
        return float(np.mean(errors))
