"""Unit tests for unit-sphere math."""

import math

import numpy as np
import pytest

from repro.geometry.angles import TWO_PI
from repro.geometry.sphere import from_unit_vector, great_circle_distance, to_unit_vector


class TestUnitVectors:
    def test_north_pole(self):
        assert np.allclose(to_unit_vector(0.0, 0.0), [0.0, 0.0, 1.0])

    def test_south_pole(self):
        assert np.allclose(to_unit_vector(1.23, math.pi), [0.0, 0.0, -1.0], atol=1e-12)

    def test_equator_theta_zero(self):
        assert np.allclose(to_unit_vector(0.0, math.pi / 2), [1.0, 0.0, 0.0])

    def test_equator_theta_half_pi(self):
        assert np.allclose(to_unit_vector(math.pi / 2, math.pi / 2), [0.0, 1.0, 0.0])

    def test_vectors_are_unit_length(self):
        thetas = np.linspace(0, TWO_PI, 13)
        phis = np.linspace(0, math.pi, 7)
        grid_t, grid_p = np.meshgrid(thetas, phis)
        vectors = to_unit_vector(grid_t, grid_p)
        assert np.allclose(np.linalg.norm(vectors, axis=-1), 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0, TWO_PI, 50)
        phi = rng.uniform(0.01, math.pi - 0.01, 50)
        theta_back, phi_back = from_unit_vector(to_unit_vector(theta, phi))
        assert np.allclose(theta_back, theta)
        assert np.allclose(phi_back, phi)

    def test_from_unit_vector_unnormalised_input(self):
        theta, phi = from_unit_vector(np.array([0.0, 0.0, 3.0]))
        assert phi == pytest.approx(0.0)

    def test_from_zero_vector_is_safe(self):
        theta, phi = from_unit_vector(np.zeros(3))
        assert 0 <= phi <= math.pi


class TestGreatCircleDistance:
    def test_zero_for_same_point(self):
        assert great_circle_distance(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.0)

    def test_antipodal_is_pi(self):
        assert great_circle_distance(0.0, math.pi / 2, math.pi, math.pi / 2) == pytest.approx(
            math.pi
        )

    def test_quarter_turn_on_equator(self):
        assert great_circle_distance(
            0.0, math.pi / 2, math.pi / 2, math.pi / 2
        ) == pytest.approx(math.pi / 2)

    def test_pole_to_equator(self):
        assert great_circle_distance(0.3, 0.0, 1.7, math.pi / 2) == pytest.approx(
            math.pi / 2
        )

    def test_wrap_through_seam(self):
        near_seam_a = great_circle_distance(0.05, math.pi / 2, TWO_PI - 0.05, math.pi / 2)
        assert near_seam_a == pytest.approx(0.1, abs=1e-9)

    def test_symmetry(self):
        d1 = great_circle_distance(0.3, 1.0, 2.0, 2.0)
        d2 = great_circle_distance(2.0, 2.0, 0.3, 1.0)
        assert d1 == pytest.approx(d2)

    def test_array_broadcast(self):
        thetas = np.array([0.0, 1.0, 2.0])
        result = great_circle_distance(thetas, math.pi / 2, 0.0, math.pi / 2)
        assert result.shape == (3,)
        assert result[0] == pytest.approx(0.0)
