"""Unit tests for the prediction service."""

import pytest

from repro.core.predictor import PREDICTOR_KINDS, PredictionService
from repro.geometry.grid import TileGrid
from repro.geometry.viewport import Orientation
from repro.predict.predictors import (
    HISTORY_WINDOW,
    DeadReckoningPredictor,
    MarkovPredictor,
    OraclePredictor,
    StaticPredictor,
)
from repro.predict.traces import HeadMovementModel, circular_pan_trace


@pytest.fixture()
def service() -> PredictionService:
    return PredictionService()


class TestFactory:
    def test_static(self, service):
        assert isinstance(service.session_predictor("static"), StaticPredictor)

    def test_deadreckoning(self, service):
        assert isinstance(
            service.session_predictor("deadreckoning"), DeadReckoningPredictor
        )

    def test_oracle_requires_trace(self, service):
        with pytest.raises(ValueError):
            service.session_predictor("oracle")

    def test_oracle(self, service):
        trace = circular_pan_trace(2.0)
        predictor = service.session_predictor("oracle", trace=trace)
        assert isinstance(predictor, OraclePredictor)
        assert predictor.trace is trace

    def test_unknown_kind(self, service):
        with pytest.raises(ValueError):
            service.session_predictor("psychic")

    def test_kinds_are_the_four_kept(self):
        assert PREDICTOR_KINDS == ("static", "deadreckoning", "markov", "oracle")

    def test_deleted_kind_names_the_kept_ones(self, service):
        with pytest.raises(ValueError, match="static.*deadreckoning.*markov.*oracle"):
            service.session_predictor("hybrid")

    def test_hyper_parameters_are_not_settable(self):
        with pytest.raises(TypeError):
            MarkovPredictor(TileGrid(2, 2), step_duration=0.5)
        with pytest.raises(TypeError):
            StaticPredictor(history_window=1.0)

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_history_is_bounded(self, service, kind):
        """A 60-s session keeps only the last HISTORY_WINDOW seconds."""
        rate = 10.0
        trace = circular_pan_trace(60.0, rate=rate)
        grid = TileGrid(2, 4)
        service.train("v", grid, [trace])
        predictor = service.session_predictor(kind, video="v", grid=grid, trace=trace)
        for time, theta, phi in zip(trace.times, trace.thetas, trace.phis):
            predictor.observe(float(time), Orientation(float(theta), float(phi)))
        kept = [entry[0] for entry in predictor._history]
        assert kept[-1] == pytest.approx(60.0)
        assert kept[0] >= kept[-1] - HISTORY_WINDOW
        assert len(kept) <= HISTORY_WINDOW * rate + 1

    def test_kind_list_is_complete(self, service):
        trace = circular_pan_trace(2.0)
        grid = TileGrid(2, 2)
        service.train("v", grid, [trace])
        for kind in PREDICTOR_KINDS:
            service.session_predictor(kind, video="v", grid=grid, trace=trace)


class TestMarkovTraining:
    def test_markov_requires_training(self, service):
        with pytest.raises(ValueError):
            service.session_predictor("markov", video="v", grid=TileGrid(2, 2))

    def test_markov_requires_video_and_grid(self, service):
        with pytest.raises(ValueError):
            service.session_predictor("markov")

    def test_trained_sessions_share_matrix(self, service):
        grid = TileGrid(2, 4)
        corpus = HeadMovementModel().generate_corpus(3, 10.0, rate=10.0, seed=2)
        service.train("v", grid, corpus)
        a = service.session_predictor("markov", video="v", grid=grid)
        b = service.session_predictor("markov", video="v", grid=grid)
        assert isinstance(a, MarkovPredictor)
        assert a is not b
        assert a.transitions is b.transitions

    def test_training_is_per_video_and_grid(self, service):
        grid = TileGrid(2, 2)
        service.train("v", grid, [circular_pan_trace(5.0)])
        service.session_predictor("markov", video="v", grid=grid)
        for video, other_grid in (("v", TileGrid(4, 4)), ("w", grid)):
            with pytest.raises(ValueError, match="no trained Markov model"):
                service.session_predictor("markov", video=video, grid=other_grid)
