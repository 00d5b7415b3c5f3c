"""Unit tests for orientation traces and the head-movement model."""

import math

import numpy as np
import pytest

from repro.geometry.angles import TWO_PI
from repro.predict.traces import (
    HeadMovementModel,
    Hotspot,
    Trace,
    circular_pan_trace,
)


class TestTraceValidation:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            Trace(np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trace(np.array([]), np.array([]), np.array([]))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            Trace(np.array([0.0, 0.0]), np.zeros(2), np.ones(2))

    def test_len_and_duration(self):
        trace = Trace(np.array([0.0, 1.0, 2.5]), np.zeros(3), np.full(3, 1.0))
        assert len(trace) == 3
        assert trace.duration == 2.5


class TestOrientationAt:
    def make(self) -> Trace:
        return Trace(
            np.array([0.0, 1.0, 2.0]),
            np.array([0.0, 1.0, 2.0]),
            np.array([1.0, 1.2, 1.4]),
        )

    def test_exact_sample(self):
        orientation = self.make().orientation_at(1.0)
        assert orientation.theta == pytest.approx(1.0)
        assert orientation.phi == pytest.approx(1.2)

    def test_interpolates(self):
        orientation = self.make().orientation_at(0.5)
        assert orientation.theta == pytest.approx(0.5)
        assert orientation.phi == pytest.approx(1.1)

    def test_clamps_before_start(self):
        assert self.make().orientation_at(-5.0).theta == pytest.approx(0.0)

    def test_clamps_after_end(self):
        assert self.make().orientation_at(99.0).theta == pytest.approx(2.0)

    def test_interpolation_wraps_through_seam(self):
        trace = Trace(
            np.array([0.0, 1.0]),
            np.array([TWO_PI - 0.1, 0.1]),  # crosses the seam
            np.array([1.0, 1.0]),
        )
        midpoint = trace.orientation_at(0.5)
        assert min(midpoint.theta, TWO_PI - midpoint.theta) == pytest.approx(0.0, abs=1e-9)


class TestWindowResample:

    def test_resample_rate(self):
        trace = circular_pan_trace(10.0, rate=30.0)
        resampled = trace.resample(5.0)
        assert len(resampled) == 51
        assert np.allclose(np.diff(resampled.times), 0.2)

    def test_resample_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            circular_pan_trace(1.0).resample(0.0)


class TestHeadMovementModel:
    def test_deterministic_per_seed(self):
        model = HeadMovementModel()
        a = model.generate(5.0, rate=10.0, seed=7)
        b = model.generate(5.0, rate=10.0, seed=7)
        assert np.array_equal(a.thetas, b.thetas)

    def test_different_seeds_differ(self):
        model = HeadMovementModel()
        a = model.generate(5.0, rate=10.0, seed=1)
        b = model.generate(5.0, rate=10.0, seed=2)
        assert not np.array_equal(a.thetas, b.thetas)

    def test_sample_count(self):
        trace = HeadMovementModel().generate(4.0, rate=25.0, seed=0)
        assert len(trace) == 101

    def test_angles_in_domain(self):
        trace = HeadMovementModel().generate(20.0, rate=30.0, seed=3)
        assert np.all((trace.thetas >= 0) & (trace.thetas < TWO_PI))
        assert np.all((trace.phis >= 0) & (trace.phis <= math.pi))

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            HeadMovementModel().generate(0.0)

    def test_movement_is_speed_limited(self):
        model = HeadMovementModel()
        trace = model.generate(10.0, rate=30.0, seed=5)
        dt = 1.0 / 30.0
        from repro.geometry.sphere import great_circle_distance

        step = great_circle_distance(
            trace.thetas[1:], trace.phis[1:], trace.thetas[:-1], trace.phis[:-1]
        )
        # Bounded by saccade speed in each axis plus jitter.
        assert np.max(step) < 2 * model.saccade_speed * dt + 0.05

    def test_gaze_concentrates_near_hotspots(self):
        hotspot = Hotspot(theta=1.0, phi=math.pi / 2, spread=0.05, weight=1.0)
        model = HeadMovementModel(hotspots=(hotspot,), jitter=0.005)
        trace = model.generate(30.0, rate=10.0, seed=2)
        from repro.geometry.sphere import great_circle_distance

        distances = great_circle_distance(trace.thetas, trace.phis, 1.0, math.pi / 2)
        assert np.median(distances) < 0.4

    def test_corpus_is_per_user_deterministic(self):
        model = HeadMovementModel()
        corpus_a = model.generate_corpus(3, 2.0, rate=10.0, seed=1)
        corpus_b = model.generate_corpus(3, 2.0, rate=10.0, seed=1)
        assert all(
            np.array_equal(a.thetas, b.thetas) for a, b in zip(corpus_a, corpus_b)
        )


class TestScriptedTraces:

    def test_circular_pan_period(self):
        trace = circular_pan_trace(10.0, rate=100.0, period=10.0)
        assert trace.thetas[0] == pytest.approx(trace.thetas[-1] % TWO_PI, abs=0.1)

    def test_circular_pan_stays_equatorial(self):
        trace = circular_pan_trace(5.0)
        assert np.allclose(trace.phis, math.pi / 2)
