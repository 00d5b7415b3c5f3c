"""Unit tests for quality-assignment policies."""

import math

import pytest

from repro.geometry.grid import TileGrid
from repro.stream.abr import (
    NaiveFullQuality,
    PredictiveTilingPolicy,
    UniformAdaptive,
    estimate_budget,
)
from repro.stream.dash import Manifest, SegmentKey
from repro.video.quality import Quality

QUALITIES = (Quality.HIGH, Quality.MEDIUM, Quality.LOW)
SIZES = {Quality.HIGH: 1000, Quality.MEDIUM: 400, Quality.LOW: 100}


@pytest.fixture()
def manifest() -> Manifest:
    grid = TileGrid(2, 2)
    sizes = {
        SegmentKey(window, tile, quality): SIZES[quality]
        for window in range(2)
        for tile in grid.tiles()
        for quality in QUALITIES
    }
    return Manifest(
        video="demo",
        width=64,
        height=32,
        fps=30,
        window_duration=1.0,
        window_count=2,
        grid=grid,
        qualities=QUALITIES,
        segment_sizes=sizes,
    )


class TestNaive:
    def test_everything_at_best(self, manifest):
        assignment = NaiveFullQuality().assign(manifest, 0, set(), budget_bytes=1.0)
        assert set(assignment) == set(manifest.grid.tiles())
        assert all(quality is Quality.HIGH for quality in assignment.values())

    def test_ignores_budget(self, manifest):
        tiny = NaiveFullQuality().assign(manifest, 0, set(), budget_bytes=1.0)
        huge = NaiveFullQuality().assign(manifest, 0, set(), budget_bytes=1e12)
        assert tiny == huge


class TestUniform:
    def test_picks_best_that_fits(self, manifest):
        # Full sphere: HIGH=4000, MEDIUM=1600, LOW=400.
        assignment = UniformAdaptive().assign(manifest, 0, set(), budget_bytes=2000)
        assert set(assignment.values()) == {Quality.MEDIUM}

    def test_high_when_budget_allows(self, manifest):
        assignment = UniformAdaptive().assign(manifest, 0, set(), budget_bytes=5000)
        assert set(assignment.values()) == {Quality.HIGH}

    def test_floor_when_nothing_fits(self, manifest):
        assignment = UniformAdaptive().assign(manifest, 0, set(), budget_bytes=10)
        assert set(assignment.values()) == {Quality.LOW}


class TestPredictive:
    def test_predicted_high_rest_low(self, manifest):
        predicted = {(0, 0), (0, 1)}
        assignment = PredictiveTilingPolicy().assign(
            manifest, 0, predicted, budget_bytes=2400
        )
        assert assignment[(0, 0)] is Quality.HIGH
        assert assignment[(0, 1)] is Quality.HIGH
        assert assignment[(1, 0)] is Quality.LOW
        assert assignment[(1, 1)] is Quality.LOW

    def test_degrades_predicted_when_over_budget(self, manifest):
        predicted = set(manifest.grid.tiles())  # everything predicted: 4000 B at HIGH
        assignment = PredictiveTilingPolicy().assign(manifest, 0, predicted, budget_bytes=2000)
        assert set(assignment.values()) == {Quality.MEDIUM}

    def test_floor_when_nothing_fits(self, manifest):
        assignment = PredictiveTilingPolicy().assign(
            manifest, 0, set(manifest.grid.tiles()), budget_bytes=1.0
        )
        assert set(assignment.values()) == {Quality.LOW}

    def test_every_tile_assigned(self, manifest):
        assignment = PredictiveTilingPolicy().assign(manifest, 0, {(0, 0)}, budget_bytes=1e9)
        assert set(assignment) == set(manifest.grid.tiles())

    def test_unknown_predicted_tiles_ignored(self, manifest):
        assignment = PredictiveTilingPolicy().assign(
            manifest, 0, {(9, 9)}, budget_bytes=1e9
        )
        assert set(assignment) == set(manifest.grid.tiles())

    def test_infinite_budget_keeps_background_low(self, manifest):
        assignment = PredictiveTilingPolicy().assign(
            manifest, 0, {(0, 0)}, budget_bytes=math.inf
        )
        assert assignment[(1, 1)] is Quality.LOW


class TestEstimateBudget:
    def test_basic(self):
        assert estimate_budget(1000.0, 2.0, safety=0.9) == pytest.approx(1800.0)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            estimate_budget(0.0, 1.0)
        with pytest.raises(ValueError):
            estimate_budget(1.0, 0.0)
        with pytest.raises(ValueError):
            estimate_budget(1.0, 1.0, safety=1.5)
