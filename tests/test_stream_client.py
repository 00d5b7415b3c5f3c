"""Unit tests for the client simulator: playback schedule and QoE probe."""

import math

import numpy as np
import pytest

from repro.geometry.grid import TileGrid
from repro.geometry.viewport import Viewport
from repro.predict.traces import Trace, circular_pan_trace
from repro.stream.client import PlaybackSimulator, ViewportQualityProbe
from repro.video.quality import Quality
from repro.video.tiles import TiledGop, TiledVideoCodec
from repro.workloads.videos import synthetic_video


class TestPlaybackSimulator:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            PlaybackSimulator(0.0)

    def test_rejects_no_windows(self):
        with pytest.raises(ValueError):
            PlaybackSimulator(1.0).schedule([])

    def test_startup_wait_is_not_a_stall(self):
        starts, stalls = PlaybackSimulator(1.0).schedule([5.0, 5.5])
        assert starts == [5.0, 6.0]
        assert stalls == [0.0, 0.0]

    def test_on_time_delivery_no_stalls(self):
        starts, stalls = PlaybackSimulator(1.0).schedule([0.5, 1.0, 2.0])
        assert starts == [0.5, 1.5, 2.5]
        assert sum(stalls) == 0.0

    def test_late_window_stalls(self):
        starts, stalls = PlaybackSimulator(1.0).schedule([0.0, 3.0])
        assert starts == [0.0, 3.0]
        assert stalls == [0.0, 2.0]

    def test_stall_shifts_subsequent_schedule(self):
        starts, stalls = PlaybackSimulator(1.0).schedule([0.0, 3.0, 3.5])
        assert starts == [0.0, 3.0, 4.0]
        assert stalls == [0.0, 2.0, 0.0]


class TestViewportQualityProbe:
    @pytest.fixture(scope="class")
    def setup(self):
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=1.0, seed=2)
        )
        grid = TileGrid(2, 2)
        payloads = TiledVideoCodec(grid, 64, 32).encode_gop_ladders(
            frames, {tile: (Quality.HIGH, Quality.LOWEST) for tile in grid.tiles()}
        )

        def window(quality_of):
            """The window holding each tile at ``quality_of(tile)``."""
            return TiledGop(
                64, 32, grid, len(frames),
                {tile: payloads[(tile, quality_of(tile))] for tile in grid.tiles()},
            )

        trace = circular_pan_trace(2.0, rate=8.0)
        return frames, window, trace

    def test_identical_window_hits_ceiling(self, setup):
        frames, window, trace = setup
        high = window(lambda tile: Quality.HIGH)
        probe = ViewportQualityProbe(Viewport(), render_width=16, render_height=16)
        decoded = high.decode()
        score = probe.window_psnr(high, decoded, trace, media_start=0.0, fps=4.0)
        assert score == pytest.approx(99.0)

    def test_lower_quality_scores_lower(self, setup):
        frames, window, trace = setup
        high = window(lambda tile: Quality.HIGH)
        low = window(lambda tile: Quality.LOWEST)
        probe = ViewportQualityProbe(Viewport(), render_width=16, render_height=16)
        reference = high.decode()
        high_score = probe.window_psnr(high, reference, trace, 0.0, 4.0)
        low_score = probe.window_psnr(low, reference, trace, 0.0, 4.0)
        assert low_score < high_score

    def test_degradation_outside_viewport_is_invisible(self, setup):
        frames, window, _ = setup
        probe = ViewportQualityProbe(
            Viewport(fov_theta=0.8, fov_phi=0.8), render_width=16, render_height=16
        )
        reference = window(lambda tile: Quality.HIGH).decode()
        # Gaze fixed at theta=pi/2; destroy only the opposite side (col 1
        # spans theta in [pi, 2pi)).
        mixed = window(lambda tile: Quality.LOWEST if tile[1] == 1 else Quality.HIGH)
        # Gaze fixed at theta=pi/2 (middle of column 0, far from column 1).
        gaze_trace = Trace(
            np.array([0.0, 2.0]),
            np.array([math.pi / 2, math.pi / 2]),
            np.array([math.pi / 2, math.pi / 2]),
        )
        score = probe.window_psnr(mixed, reference, gaze_trace, 0.0, 4.0)
        assert score > 40  # only far-side tiles were degraded

    def test_frame_count_mismatch_raises(self, setup):
        frames, window, trace = setup
        high = window(lambda tile: Quality.HIGH)
        probe = ViewportQualityProbe(Viewport())
        with pytest.raises(ValueError):
            probe.window_psnr(high, frames[:-1], trace, 0.0, 4.0)
