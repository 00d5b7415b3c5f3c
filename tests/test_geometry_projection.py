"""Unit tests for the equirectangular projection."""

import math

import numpy as np
import pytest

from repro.geometry.angles import TWO_PI
from repro.geometry.projection import EquirectangularProjection


@pytest.fixture()
def projection() -> EquirectangularProjection:
    return EquirectangularProjection(width=64, height=32)


class TestEquirectangularMapping:
    def test_rejects_degenerate_raster(self):
        with pytest.raises(ValueError):
            EquirectangularProjection(1, 32)

    def test_pixel_centers_round_trip(self, projection):
        xs, ys = np.meshgrid(np.arange(64), np.arange(32))
        theta, phi = projection.pixel_to_angle(xs, ys)
        x_back, y_back = projection.angle_to_pixel(theta, phi)
        assert np.allclose(x_back, xs)
        assert np.allclose(y_back, ys)

    def test_first_column_near_theta_zero(self, projection):
        theta, _ = projection.pixel_to_angle(0, 0)
        assert theta == pytest.approx(math.pi / 64)  # half-pixel offset

    def test_rows_span_phi(self, projection):
        _, phi_top = projection.pixel_to_angle(0, 0)
        _, phi_bottom = projection.pixel_to_angle(0, 31)
        assert 0 < phi_top < phi_bottom < math.pi

    def test_theta_wraps(self, projection):
        x, _ = projection.angle_to_pixel(TWO_PI + 0.1, 1.0)
        x_ref, _ = projection.angle_to_pixel(0.1, 1.0)
        assert x == pytest.approx(x_ref)


class TestEquirectangularSampling:
    def test_sample_constant_plane(self, projection):
        plane = np.full((32, 64), 7.0)
        assert projection.sample(plane, 1.0, 1.0) == pytest.approx(7.0)

    def test_sample_matches_pixel_at_center(self, projection):
        plane = np.arange(32 * 64, dtype=np.float64).reshape(32, 64)
        theta, phi = projection.pixel_to_angle(10, 20)
        assert projection.sample(plane, theta, phi) == pytest.approx(plane[20, 10])

    def test_sample_interpolates_across_seam(self, projection):
        plane = np.zeros((32, 64))
        plane[:, 0] = 10.0
        plane[:, -1] = 30.0
        # Exactly on the seam between the last and first column.
        value = projection.sample(plane, 0.0, math.pi / 2)
        assert 10.0 < value < 30.0

    def test_sample_shape_mismatch_raises(self, projection):
        with pytest.raises(ValueError):
            projection.sample(np.zeros((16, 16)), 0.0, 1.0)

    def test_sample_vectorised(self, projection):
        plane = np.random.default_rng(0).uniform(0, 255, (32, 64))
        thetas = np.linspace(0.1, 6.0, 17)
        phis = np.linspace(0.1, 3.0, 17)
        values = projection.sample(plane, thetas, phis)
        assert values.shape == (17,)


class TestSamplingDensity:
    def test_equator_is_minimum(self, projection):
        density = projection.sampling_density()
        assert np.argmin(density) in (15, 16)

    def test_poles_oversampled(self, projection):
        density = projection.sampling_density()
        assert density[0] > 10 * density[16]
