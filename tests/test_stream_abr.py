"""Unit tests for quality-assignment policies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def ring_schedule(manifest, window, predicted, budget_bytes):
    """The fixed-hedge rule a plain set must still get: the predicted set
    at the best rung that fits, everything else at the floor."""
    ladder = manifest.qualities
    tiles = set(manifest.grid.tiles())
    predicted = predicted & tiles
    for quality in ladder:
        quality_map = {tile: quality if tile in predicted else ladder[-1] for tile in tiles}
        if manifest.window_size(window, quality_map) <= budget_bytes:
            return quality_map
    return {tile: ladder[-1] for tile in tiles}


def varied_manifest(top, middle, floor) -> Manifest:
    """One window over a 2x4 grid with per-tile sizes for a three-rung ladder."""
    grid = TileGrid(2, 4)
    sizes = {}
    for index, tile in enumerate(grid.tiles()):
        for quality, size in zip(QUALITIES, (top[index], middle[index], floor[index])):
            sizes[SegmentKey(0, tile, quality)] = size
    return Manifest("demo", 64, 32, 30, 1.0, 1, grid, QUALITIES, sizes)


def expected_credit(manifest, footprints, quality_map) -> int:
    """Samples x P(every visible tile at the top rung) x (naive - window
    bytes), in integers so equal scores compare equal."""
    best = {manifest.grid.index_of(*tile) for tile, q in quality_map.items() if q is QUALITIES[0]}
    covered = sum(set(np.flatnonzero(row)) <= best for row in footprints)
    naive = manifest.full_sphere_size(0, QUALITIES[0])
    return covered * (naive - manifest.window_size(0, quality_map))


SIZE_ROWS = st.lists(st.integers(1, 400), min_size=8, max_size=8)


class TestForecastAllocator:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.tuples(st.integers(0, 1), st.integers(0, 3))),
        st.integers(0, 4000),
        SIZE_ROWS,
    )
    def test_plain_set_gets_the_fixed_hedge_map(self, predicted, budget, extra):
        manifest = varied_manifest(
            [600 + e for e in extra], [300 + e // 2 for e in extra], [100] * 8
        )
        assert PredictiveTilingPolicy().assign(manifest, 0, predicted, budget) == (
            ring_schedule(manifest, 0, predicted, budget)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.lists(st.booleans(), min_size=8, max_size=8), min_size=1, max_size=12),
        st.integers(0, 6000),
        SIZE_ROWS,
        SIZE_ROWS,
    )
    def test_chosen_set_beats_the_modal_footprint(self, rows, budget, extra, floor):
        manifest = varied_manifest(
            [f + e + 1 for f, e in zip(floor, extra)], [f + e // 2 for f, e in zip(floor, extra)], floor
        )
        footprints = np.array(rows, dtype=bool)
        modal = {manifest.grid.tile_at(int(i)) for i in np.flatnonzero(footprints[0])}
        chosen = PredictiveTilingPolicy().assign(manifest, 0, footprints, budget)
        alone = ring_schedule(manifest, 0, modal, budget)
        modal_at_top = {t: QUALITIES[0] if t in modal else QUALITIES[-1] for t in alone}
        if manifest.window_size(0, modal_at_top) > budget:
            assert chosen == alone  # the modal footprint does not fit: the schedule runs
            return
        assert all(chosen[tile] is QUALITIES[0] for tile in modal)
        assert set(chosen.values()) <= {QUALITIES[0], QUALITIES[-1]}
        assert manifest.window_size(0, chosen) <= budget
        assert expected_credit(manifest, footprints, chosen) >= expected_credit(
            manifest, footprints, alone
        )

    def test_a_likely_neighbour_is_bought_and_a_rare_one_is_not(self, manifest):
        # Four samples: the modal footprint is tile 0; tile 1 joins it in
        # three samples, tile 3 in one.
        footprints = np.array(
            [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 0, 1]], dtype=bool
        )
        chosen = PredictiveTilingPolicy().assign(manifest, 0, footprints, budget_bytes=1e9)
        assert chosen == {
            (0, 0): Quality.HIGH, (0, 1): Quality.HIGH, (1, 0): Quality.LOW, (1, 1): Quality.LOW
        }


class TestEstimateBudget:
    def test_basic(self):
        assert estimate_budget(1000.0, 2.0) == pytest.approx(1800.0)  # derated by 0.9

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            estimate_budget(0.0, 1.0)
        with pytest.raises(ValueError):
            estimate_budget(1.0, 0.0)
