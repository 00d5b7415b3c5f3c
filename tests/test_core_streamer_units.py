"""Unit tests for the streamer's timing primitives.

The integration tests exercise whole sessions; these pin down the small
functions whose edge cases integration noise would mask.
"""

import pytest

from repro.core.streamer import Streamer
from repro.geometry.viewport import Orientation
from repro.predict.predictors import StaticPredictor
from repro.predict.traces import circular_pan_trace


class TestMediaTime:
    def test_before_playback_starts(self):
        assert Streamer._media_time([], 1.0, 5.0) == 0.0

    def test_wall_before_first_start(self):
        assert Streamer._media_time([2.0], 1.0, 1.0) == 0.0

    def test_mid_first_window(self):
        assert Streamer._media_time([2.0], 1.0, 2.4) == pytest.approx(0.4)

    def test_media_time_freezes_during_stall(self):
        # Window 0 plays at [2, 3); window 1 stalled until 5.
        starts = [2.0, 5.0]
        assert Streamer._media_time(starts, 1.0, 3.5) == pytest.approx(1.0)
        assert Streamer._media_time(starts, 1.0, 5.2) == pytest.approx(1.2)

    def test_continuous_playback(self):
        starts = [0.0, 1.0, 2.0]
        assert Streamer._media_time(starts, 1.0, 2.75) == pytest.approx(2.75)

    def test_past_the_end_clamps_to_last_window(self):
        starts = [0.0, 1.0]
        assert Streamer._media_time(starts, 1.0, 99.0) == pytest.approx(2.0)


class TestObserve:
    def test_feeds_samples_up_to_deadline(self):
        trace = circular_pan_trace(4.0, rate=2.0)
        predictor = StaticPredictor()
        cursor = Streamer._observe(predictor, trace, 0, up_to=1.0)
        # Samples at 0.0, 0.5, 1.0 are at or before the deadline.
        assert cursor == 3
        assert len(predictor._history) == 3

    def test_always_feeds_at_least_one(self):
        trace = circular_pan_trace(4.0, rate=2.0)
        predictor = StaticPredictor()
        cursor = Streamer._observe(predictor, trace, 0, up_to=-5.0)
        assert cursor == 1
        predictor.predict(0.0)  # does not raise: one observation exists

    def test_cursor_resumes_without_duplicates(self):
        trace = circular_pan_trace(4.0, rate=2.0)
        predictor = StaticPredictor()
        cursor = Streamer._observe(predictor, trace, 0, up_to=1.0)
        cursor = Streamer._observe(predictor, trace, cursor, up_to=2.0)
        assert cursor == 5
        times = [entry[0] for entry in predictor._history]
        assert times == sorted(set(times))

    def test_no_new_samples_is_a_noop(self):
        trace = circular_pan_trace(4.0, rate=2.0)
        predictor = StaticPredictor()
        cursor = Streamer._observe(predictor, trace, 0, up_to=1.0)
        assert Streamer._observe(predictor, trace, cursor, up_to=1.0) == cursor
