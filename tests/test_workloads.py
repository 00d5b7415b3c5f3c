"""Tests for the procedural video and viewer-population generators."""

import numpy as np
import pytest

from repro.video.gop import encode_gop
from repro.video.quality import Quality
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import (
    PROFILES,
    checkerboard_video,
    solid_video,
    synthetic_video,
)


class TestSyntheticVideo:
    def test_frame_count_and_dimensions(self):
        frames = list(synthetic_video("venice", width=64, height=32, fps=10, duration=1.0))
        assert len(frames) == 10
        assert frames[0].width == 64
        assert frames[0].height == 32

    def test_deterministic_per_seed(self):
        a = list(synthetic_video("venice", width=64, height=32, duration=0.2, seed=1))
        b = list(synthetic_video("venice", width=64, height=32, duration=0.2, seed=1))
        assert all(x.equals(y) for x, y in zip(a, b))

    def test_seeds_differ(self):
        a = next(iter(synthetic_video("venice", width=64, height=32, seed=1)))
        b = next(iter(synthetic_video("venice", width=64, height=32, seed=2)))
        assert not a.equals(b)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            list(synthetic_video("nope", width=64, height=32))

    def test_rejects_unaligned_dimensions(self):
        with pytest.raises(ValueError):
            list(synthetic_video("venice", width=60, height=32))

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            list(synthetic_video("venice", width=64, height=32, duration=0.0))

    def test_content_wraps_at_seam(self):
        """The azimuth seam must be continuous: columns 0 and -1 close."""
        profile = PROFILES["timelapse"]
        frame = next(iter(synthetic_video(profile, width=128, height=32, seed=3)))
        seam_jump = np.abs(frame.y[:, 0].astype(int) - frame.y[:, -1].astype(int))
        interior_jump = np.abs(frame.y[:, 64].astype(int) - frame.y[:, 63].astype(int))
        assert np.mean(seam_jump) < np.mean(interior_jump) + 12

    def test_profiles_order_by_temporal_change(self):
        """Coaster (global pan) must cost more P-frame bits than timelapse."""
        def gop_size(profile):
            frames = list(
                synthetic_video(profile, width=64, height=32, fps=8, duration=1.0, seed=4)
            )
            return len(encode_gop(frames, Quality.HIGH))

        assert gop_size("coaster") > gop_size("timelapse")

    def test_all_profiles_generate(self):
        for name in PROFILES:
            frames = list(
                synthetic_video(name, width=64, height=32, fps=4, duration=0.5, seed=0)
            )
            assert len(frames) == 2


class TestTestPatterns:
    def test_solid_video(self):
        frames = solid_video(32, 16, frames=3, luma=9)
        assert len(frames) == 3
        assert np.all(frames[0].y == 9)

    def test_checkerboard_moves(self):
        frames = checkerboard_video(32, 16, frames=3, step=4)
        assert not frames[0].equals(frames[1])

    def test_checkerboard_values(self):
        frame = checkerboard_video(32, 16, frames=1)[0]
        assert set(np.unique(frame.y)) == {28, 228}


class TestViewerPopulation:
    def test_traces_deterministic(self):
        a = ViewerPopulation(seed=1).trace(0, duration=2.0, rate=10)
        b = ViewerPopulation(seed=1).trace(0, duration=2.0, rate=10)
        assert np.array_equal(a.thetas, b.thetas)

    def test_users_differ(self):
        population = ViewerPopulation(seed=1)
        a = population.trace(0, duration=2.0, rate=10)
        b = population.trace(1, duration=2.0, rate=10)
        assert not np.array_equal(a.thetas, b.thetas)

    def test_traces_count(self):
        traces = ViewerPopulation(seed=0).traces(3, duration=1.0, rate=10)
        assert len(traces) == 3

    def test_traces_rejects_zero(self):
        with pytest.raises(ValueError):
            ViewerPopulation().traces(0, duration=1.0)

    def test_split_disjoint_and_complete(self):
        train, test = ViewerPopulation().split(10, train_fraction=0.6)
        assert len(train) == 6
        assert len(test) == 4
        assert not set(train) & set(test)

    def test_split_never_empty(self):
        train, test = ViewerPopulation().split(2, train_fraction=0.99)
        assert train and test

    def test_split_validates_fraction(self):
        with pytest.raises(ValueError):
            ViewerPopulation().split(4, train_fraction=1.0)


class TestBenchHarness:

    def test_ratio(self):
        from repro.bench import ratio

        assert ratio(10, 5) == "2.00x"
        assert ratio(1000, 5) == "200x"
        assert ratio(1, 0) == "inf x"

    def test_format_table_alignment(self):
        from repro.bench import format_table

        table = format_table("demo", [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = table.splitlines()
        assert lines[0] == "== demo =="
        assert len(lines) == 5  # title, header, rule, two rows
        assert len(lines[2]) == len(lines[1])
