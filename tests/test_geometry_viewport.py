"""Unit tests for viewport geometry."""

import math

import numpy as np
import pytest

from repro.geometry.grid import TileGrid
from repro.geometry.sphere import to_unit_vector
from repro.geometry.viewport import Orientation, Viewport


class TestOrientation:
    def test_wraps_theta(self):
        assert Orientation(-0.5, 1.0).theta == pytest.approx(2 * math.pi - 0.5)

    def test_clamps_phi(self):
        assert Orientation(0.0, 9.9).phi == math.pi


class TestViewportValidation:
    def test_rejects_fov_over_pi(self):
        with pytest.raises(ValueError):
            Viewport(fov_theta=3.5)

    def test_rejects_zero_fov(self):
        with pytest.raises(ValueError):
            Viewport(fov_phi=0.0)


class TestRayDirections:
    def test_center_ray_is_forward(self):
        viewport = Viewport()
        orientation = Orientation(1.0, 1.2)
        rays = viewport.ray_directions(orientation, 9, 9)
        from repro.geometry.sphere import to_unit_vector

        assert np.allclose(rays[4, 4], to_unit_vector(1.0, 1.2), atol=1e-9)

    def test_rays_are_unit(self):
        rays = Viewport().ray_directions(Orientation(0.3, 1.0), 7, 5)
        assert np.allclose(np.linalg.norm(rays, axis=-1), 1.0)

    def test_rejects_empty_raster(self):
        with pytest.raises(ValueError):
            Viewport().ray_directions(Orientation(0, 1), 0, 5)

    def test_rays_within_diagonal_fov(self):
        viewport = Viewport(fov_theta=math.radians(90), fov_phi=math.radians(90))
        orientation = Orientation(0.0, math.pi / 2)
        rays = viewport.ray_directions(orientation, 15, 15)
        from repro.geometry.sphere import to_unit_vector

        forward = to_unit_vector(0.0, math.pi / 2)
        angles = np.arccos(np.clip(rays @ forward, -1, 1))
        # The diagonal of a 90x90 frustum reaches ~54.7 degrees.
        assert np.max(angles) < math.radians(56)

    def test_pole_gaze_is_well_defined(self):
        rays = Viewport().ray_directions(Orientation(0.7, 0.0), 5, 5)
        assert np.all(np.isfinite(rays))


class TestVisibleTiles:
    def test_equator_gaze_covers_center_tiles(self):
        grid = TileGrid(4, 4)
        viewport = Viewport(fov_theta=math.radians(90), fov_phi=math.radians(90))
        center = Orientation(math.pi, math.pi / 2)
        visible = viewport.visible_tiles(center, grid)
        row, col = grid.tile_of(math.pi, math.pi / 2)
        assert (row, col) in visible
        assert len(visible) < grid.tile_count

    def test_narrow_viewport_sees_fewer_tiles(self):
        grid = TileGrid(8, 8)
        wide = Viewport(fov_theta=math.radians(110), fov_phi=math.radians(110))
        narrow = Viewport(fov_theta=math.radians(40), fov_phi=math.radians(40))
        orientation = Orientation(1.0, math.pi / 2)
        assert len(narrow.visible_tiles(orientation, grid)) < len(
            wide.visible_tiles(orientation, grid)
        )

    def test_pole_gaze_spans_many_columns(self):
        grid = TileGrid(4, 8)
        visible = Viewport().visible_tiles(Orientation(0.0, 0.05), grid)
        columns = {col for row, col in visible if row == 0}
        assert len(columns) == 8  # looking at the pole sees all azimuths

    def test_seam_gaze_spans_wrap(self):
        grid = TileGrid(4, 8)
        visible = Viewport().visible_tiles(Orientation(0.0, math.pi / 2), grid)
        columns = {col for _, col in visible}
        assert 0 in columns and 7 in columns


def reference_rays(viewport, orientation, width, height):
    """One gaze's rays, computed one orientation at a time as the
    per-gaze code always did: the reference the batched form must equal
    bit for bit."""
    forward = to_unit_vector(orientation.theta, orientation.phi)
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    norm = np.linalg.norm(right)
    if norm < 1e-9:
        right = np.array([-math.sin(orientation.theta), math.cos(orientation.theta), 0.0])
    else:
        right = right / norm
    up = np.cross(right, forward)
    u = (np.arange(width) + 0.5) / width * 2.0 - 1.0
    v = (np.arange(height) + 0.5) / height * 2.0 - 1.0
    u_grid, v_grid = np.meshgrid(
        u * math.tan(viewport.fov_theta / 2.0), v * math.tan(viewport.fov_phi / 2.0)
    )
    rays = forward + u_grid[..., None] * right - v_grid[..., None] * up
    return rays / np.linalg.norm(rays, axis=-1, keepdims=True)


def reference_visible_tiles(viewport, orientation, grid, samples=15):
    rays = reference_rays(viewport, orientation, samples, samples).reshape(-1, 3)
    norm = np.linalg.norm(rays, axis=-1)
    phi = np.arccos(np.clip(rays[:, 2] / np.where(norm == 0.0, 1.0, norm), -1.0, 1.0))
    theta = np.arctan2(rays[:, 1], rays[:, 0]) % (2.0 * math.pi)
    return {grid.tile_at(int(i)) for i in np.unique(grid.tiles_of(theta, phi))}


class TestVisibleMask:
    """The batched footprint is the per-gaze ray cast, gaze by gaze."""

    @pytest.mark.parametrize("shape", [(4, 8), (3, 6), (2, 4)])
    def test_equals_visible_tiles_on_a_lattice(self, shape):
        grid = TileGrid(*shape)
        viewport = Viewport()
        # Both poles, the theta seam from either side, and tile edges.
        thetas = [0.0, 1e-12, 2 * math.pi - 1e-12] + list(np.linspace(0, 2 * math.pi, 17)[1:-1])
        phis = [0.0, 1e-9, math.pi - 1e-9, math.pi] + list(np.linspace(0, math.pi, 9)[1:-1])
        gazes = [Orientation(theta, phi) for theta in thetas for phi in phis]
        mask = viewport.visible_mask(
            np.array([g.theta for g in gazes]).reshape(len(thetas), len(phis)),
            np.array([g.phi for g in gazes]).reshape(len(thetas), len(phis)),
            grid,
        ).reshape(len(gazes), grid.tile_count)
        for gaze, row in zip(gazes, mask):
            cast = reference_visible_tiles(viewport, gaze, grid)
            assert {grid.tile_at(int(i)) for i in np.flatnonzero(row)} == cast
            assert viewport.visible_tiles(gaze, grid) == cast

    def test_rays_equal_the_per_gaze_reference(self):
        viewport = Viewport(fov_theta=1.2, fov_phi=0.9)
        for gaze in (Orientation(0.3, 1.0), Orientation(0.7, 0.0), Orientation(2.0, math.pi)):
            assert np.array_equal(
                viewport.ray_directions(gaze, 7, 5), reference_rays(viewport, gaze, 7, 5)
            )

    def test_rows_are_independent_of_the_batch(self):
        grid = TileGrid(4, 8)
        rng = np.random.default_rng(5)
        thetas, phis = rng.uniform(0, 2 * math.pi, 40), rng.uniform(0, math.pi, 40)
        batch = Viewport().visible_mask(thetas, phis, grid)
        for index in range(40):
            alone = Viewport().visible_mask(thetas[index], phis[index], grid)
            assert np.array_equal(batch[index], alone)


class TestRender:
    def test_constant_plane_renders_constant(self):
        plane = np.full((32, 64), 99.0)
        image = Viewport().render(plane, Orientation(1.0, math.pi / 2), 8, 8)
        assert image.shape == (8, 8)
        assert np.allclose(image, 99.0)

    def test_render_picks_up_gaze_direction(self):
        plane = np.zeros((32, 64))
        plane[:, :32] = 200.0  # bright hemisphere around theta in [0, pi)
        bright = Viewport(fov_theta=0.6, fov_phi=0.6).render(
            plane, Orientation(math.pi / 2, math.pi / 2), 8, 8
        )
        dark = Viewport(fov_theta=0.6, fov_phi=0.6).render(
            plane, Orientation(3 * math.pi / 2, math.pi / 2), 8, 8
        )
        assert np.mean(bright) > 150
        assert np.mean(dark) < 50


def coverage(viewport, orientation, grid):
    """Fraction of the grid's tiles visible at ``orientation``."""
    return len(viewport.visible_tiles(orientation, grid)) / grid.tile_count


class TestCoverageScaling:
    def test_coverage_shrinks_with_finer_grids(self):
        """On finer grids the viewport covers a smaller *fraction* — the
        geometric fact that makes fine tiling save bandwidth (E7)."""
        orientation = Orientation(1.0, math.pi / 2)
        viewport = Viewport()
        coarse = coverage(viewport, orientation, TileGrid(2, 4))
        fine = coverage(viewport, orientation, TileGrid(4, 8))
        finest = coverage(viewport, orientation, TileGrid(8, 16))
        assert coarse >= fine >= finest

    def test_coverage_grows_toward_poles(self):
        """Near a pole the equirectangular footprint widens across all
        azimuth columns."""
        grid = TileGrid(4, 8)
        viewport = Viewport()
        equator = coverage(viewport, Orientation(1.0, math.pi / 2), grid)
        polar = coverage(viewport, Orientation(1.0, 0.15), grid)
        assert polar > equator
