"""Unit tests for periodic angular arithmetic."""

import math

import numpy as np
import pytest

from repro.geometry.angles import (
    TWO_PI,
    AngularRect,
    angular_difference,
    clamp_phi,
    unwrap_theta,
    wrap_theta,
)


class TestWrapTheta:
    def test_identity_inside_range(self):
        assert wrap_theta(1.0) == 1.0

    def test_negative_wraps_up(self):
        assert wrap_theta(-math.pi / 2) == pytest.approx(3 * math.pi / 2)

    def test_full_turn_wraps_to_zero(self):
        assert wrap_theta(TWO_PI) == pytest.approx(0.0)

    def test_multiple_turns(self):
        assert wrap_theta(5 * TWO_PI + 0.25) == pytest.approx(0.25)

    def test_array_input(self):
        values = np.array([-0.1, 0.0, TWO_PI + 0.1])
        wrapped = wrap_theta(values)
        assert wrapped[0] == pytest.approx(TWO_PI - 0.1)
        assert wrapped[1] == 0.0
        assert wrapped[2] == pytest.approx(0.1)


class TestClampPhi:
    def test_inside_unchanged(self):
        assert clamp_phi(1.0) == 1.0

    def test_below_zero_clamps(self):
        assert clamp_phi(-0.5) == 0.0

    def test_above_pi_clamps(self):
        assert clamp_phi(4.0) == math.pi

    def test_array(self):
        out = clamp_phi(np.array([-1.0, 1.0, 5.0]))
        assert out.tolist() == [0.0, 1.0, math.pi]


class TestAngularDifference:
    def test_zero_for_equal(self):
        assert angular_difference(1.2, 1.2) == 0.0

    def test_simple_positive(self):
        assert angular_difference(1.5, 1.0) == pytest.approx(0.5)

    def test_shortest_path_through_seam(self):
        # From 350deg to 10deg the short way is +20deg, not -340.
        a = math.radians(10)
        b = math.radians(350)
        assert angular_difference(a, b) == pytest.approx(math.radians(20))

    def test_result_in_half_open_range(self):
        # Exactly opposite points give +pi, never -pi.
        assert angular_difference(0.0, math.pi) == pytest.approx(math.pi)

    def test_antisymmetric_off_seam(self):
        assert angular_difference(0.4, 1.0) == pytest.approx(-angular_difference(1.0, 0.4))

    def test_array(self):
        diffs = angular_difference(np.array([0.1, 6.2]), np.array([6.2, 0.1]))
        assert diffs[0] == pytest.approx(-diffs[1])


class TestUnwrapTheta:
    def test_monotone_without_wrap(self):
        values = np.array([0.1, 0.2, 0.3])
        assert np.allclose(unwrap_theta(values), values)

    def test_unwraps_forward_through_seam(self):
        values = np.array([6.0, 6.2, 0.1, 0.3])
        unwrapped = unwrap_theta(values)
        assert np.all(np.diff(unwrapped) > 0)
        assert unwrapped[-1] == pytest.approx(6.0 + (6.2 - 6.0) + (0.1 - 6.2 + TWO_PI) + 0.2)

    def test_unwraps_backward_through_seam(self):
        values = np.array([0.2, 0.05, 6.2])
        unwrapped = unwrap_theta(values)
        assert np.all(np.diff(unwrapped) < 0)

    def test_empty(self):
        assert unwrap_theta(np.array([])).size == 0

    def test_single(self):
        assert unwrap_theta(np.array([2.0])).tolist() == [2.0]


class TestAngularRect:
    def test_phi_order_validated(self):
        with pytest.raises(ValueError):
            AngularRect(0.0, 1.0, 2.0, 1.0)

    def test_phi_range_validated(self):
        with pytest.raises(ValueError):
            AngularRect(0.0, 1.0, -0.5, 1.0)

    def test_theta_span_simple(self):
        rect = AngularRect(0.0, math.pi, 0.0, 1.0)
        assert rect.theta_span == pytest.approx(math.pi)

    def test_theta_span_wrapping(self):
        rect = AngularRect(3 * math.pi / 2, math.pi / 2, 0.0, 1.0)
        assert rect.theta_span == pytest.approx(math.pi)

    def test_theta_span_full_circle(self):
        rect = AngularRect(0.0, TWO_PI, 0.0, math.pi)
        assert rect.theta_span == pytest.approx(TWO_PI)

    def test_center_simple(self):
        rect = AngularRect(0.0, 1.0, 0.0, 1.0)
        assert rect.center() == (pytest.approx(0.5), pytest.approx(0.5))

    def test_center_wrapping(self):
        rect = AngularRect(TWO_PI - 0.5, 0.5, 0.0, 1.0)
        theta, _ = rect.center()
        assert theta == pytest.approx(0.0)
