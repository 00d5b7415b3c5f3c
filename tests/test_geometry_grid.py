"""Unit tests for angular tile grids."""

import math

import numpy as np
import pytest

from repro.geometry.angles import TWO_PI
from repro.geometry.grid import TileGrid


class TestConstruction:
    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            TileGrid(0, 4)

    def test_rejects_zero_cols(self):
        with pytest.raises(ValueError):
            TileGrid(4, 0)

    def test_tile_count(self):
        assert TileGrid(3, 5).tile_count == 15

    def test_steps(self):
        grid = TileGrid(4, 8)
        assert grid.theta_step == pytest.approx(TWO_PI / 8)
        assert grid.phi_step == pytest.approx(math.pi / 4)

    def test_is_hashable_and_equatable(self):
        assert TileGrid(2, 2) == TileGrid(2, 2)
        assert len({TileGrid(2, 2), TileGrid(2, 2), TileGrid(2, 3)}) == 2


class TestIndexing:
    def test_row_major_iteration(self):
        grid = TileGrid(2, 3)
        assert list(grid.tiles()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_index_round_trip(self):
        grid = TileGrid(3, 4)
        for tile in grid.tiles():
            assert grid.tile_at(grid.index_of(*tile)) == tile

    def test_index_of_out_of_bounds(self):
        with pytest.raises(IndexError):
            TileGrid(2, 2).index_of(2, 0)

    def test_tile_at_out_of_bounds(self):
        with pytest.raises(IndexError):
            TileGrid(2, 2).tile_at(4)


class TestRects:
    def test_rects_partition_the_sphere(self):
        grid = TileGrid(2, 4)
        total_span = sum(grid.rect(r, c).theta_span for c in range(4) for r in [0])
        assert total_span == pytest.approx(TWO_PI)

    def test_last_column_ends_at_two_pi(self):
        grid = TileGrid(1, 3)
        assert grid.rect(0, 2).theta1 == pytest.approx(TWO_PI)

    def test_last_row_ends_at_pi(self):
        grid = TileGrid(3, 1)
        assert grid.rect(2, 0).phi1 == pytest.approx(math.pi)

    def test_rect_bounds_check(self):
        with pytest.raises(IndexError):
            TileGrid(2, 2).rect(0, 5)


class TestTileOf:
    def test_center_of_each_tile_maps_back(self):
        grid = TileGrid(3, 4)
        for tile in grid.tiles():
            theta, phi = grid.rect(*tile).center()
            assert grid.tile_of(theta, phi) == tile

    def test_wraps_theta(self):
        grid = TileGrid(2, 4)
        assert grid.tile_of(-0.01, 1.0) == grid.tile_of(TWO_PI - 0.01, 1.0)

    def test_south_pole_in_last_row(self):
        grid = TileGrid(4, 4)
        row, _ = grid.tile_of(0.0, math.pi)
        assert row == 3

    def test_vectorised_matches_scalar(self):
        grid = TileGrid(3, 5)
        rng = np.random.default_rng(1)
        thetas = rng.uniform(0, TWO_PI, 100)
        phis = rng.uniform(0, math.pi, 100)
        vector = grid.tiles_of(thetas, phis)
        scalar = [grid.index_of(*grid.tile_of(t, p)) for t, p in zip(thetas, phis)]
        assert vector.tolist() == scalar


class TestNeighbors:
    def test_interior_tile_has_eight(self):
        grid = TileGrid(4, 6)
        assert len(grid.neighbors(1, 1)) == 8

    def test_wraps_through_azimuth_seam(self):
        grid = TileGrid(4, 6)
        neighbors = grid.neighbors(1, 0)
        assert (1, 5) in neighbors

    def test_does_not_wrap_over_poles(self):
        grid = TileGrid(4, 6)
        assert all(row >= 0 for row, _ in grid.neighbors(0, 0))
        assert len(grid.neighbors(0, 0)) == 5

    def test_deduplicates_on_narrow_grid(self):
        grid = TileGrid(3, 2)
        neighbors = grid.neighbors(1, 0)
        assert len(neighbors) == len(set(neighbors))

    def test_single_column_grid(self):
        grid = TileGrid(3, 1)
        assert grid.neighbors(1, 0) == [(0, 0), (2, 0)]


class TestExpand:
    def test_margin_zero_is_identity(self):
        grid = TileGrid(4, 4)
        tiles = {(1, 1), (2, 2)}
        assert grid.expand(tiles, margin=0) == tiles

    def test_margin_one_adds_ring(self):
        grid = TileGrid(8, 8)
        grown = grid.expand({(4, 4)}, margin=1)
        assert grown == {(r, c) for r in (3, 4, 5) for c in (3, 4, 5)}

    def test_margin_two_equals_double_expand(self):
        grid = TileGrid(8, 8)
        once = grid.expand(grid.expand({(4, 4)}, 1), 1)
        assert grid.expand({(4, 4)}, margin=2) == once

    def test_expand_saturates_at_full_grid(self):
        grid = TileGrid(2, 2)
        assert grid.expand({(0, 0)}, margin=3) == set(grid.tiles())


class TestMasks:
    def test_tiles_in_reads_row_major(self):
        grid = TileGrid(2, 3)
        mask = np.array([True, False, False, False, True, True])
        assert grid.tiles_in(mask) == {(0, 0), (1, 1), (1, 2)}

    def test_mask_of_inverts_tiles_in(self):
        grid = TileGrid(3, 4)
        tiles = {(0, 3), (1, 0), (2, 2)}
        assert grid.tiles_in(grid.mask_of(tiles)) == tiles
        assert grid.mask_of(set()).shape == (grid.tile_count,)

    def test_mask_of_drops_tiles_outside_the_grid(self):
        grid = TileGrid(2, 2)
        assert grid.tiles_in(grid.mask_of({(0, 1), (5, 5), (-1, 0)})) == {(0, 1)}
