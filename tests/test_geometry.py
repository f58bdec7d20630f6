import math

import numpy as np
import pytest

from terrafilter import (InvalidInputError, WaypointGeometry, next_waypoint,
                         vertical_recursion, waypoint_std)


class TestNextWaypoint:
    def test_straight_down_ranging(self):
        geom = WaypointGeometry(pitch=math.pi / 2, yaw=1.3,
                                lidar_distance=20.0, clearance=5.0)
        x, y, z = next_waypoint((1.0, 2.0, 3.0), geom)
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(2.0, abs=1e-12)
        assert z == pytest.approx(3.0 + 5.0 - 20.0)

    def test_horizontal_ranging(self):
        geom = WaypointGeometry(pitch=0.0, yaw=0.0,
                                lidar_distance=20.0, clearance=5.0)
        x, y, z = next_waypoint((0.0, 0.0, 0.0), geom)
        assert (x, y, z) == pytest.approx((5.0, 0.0, 5.0))

    def test_hand_trigonometry(self):
        geom = WaypointGeometry(pitch=math.pi / 6, yaw=math.pi / 2,
                                lidar_distance=20.0, clearance=5.0)
        x, y, z = next_waypoint((0.0, 0.0, 0.0), geom)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(5.0 * math.cos(math.pi / 6))
        assert z == pytest.approx(5.0 - 20.0 * 0.5)

    def test_invalid_geometry(self):
        with pytest.raises(InvalidInputError):
            WaypointGeometry(pitch=0.1, yaw=0.0, lidar_distance=0.0,
                             clearance=5.0)
        with pytest.raises(InvalidInputError):
            WaypointGeometry(pitch=0.1, yaw=0.0, lidar_distance=1.0,
                             clearance=5.0, lidar_std=-0.1)

    @pytest.mark.parametrize("current, noise, pitch, name", [
        ((math.nan, 0.0, 0.0), (0.0, 0.0), 0.5, "current"),
        ((0.0, 0.0, 0.0), (0.0, math.inf), 0.5, "noise"),
        ((0.0, 0.0, 0.0), (0.0, 1e308), 1e308, "noisy_pitch"),
        ((0.0, 0.0, 1e308), (1e308, 0.0), -math.pi / 2, "next_waypoint"),
    ])
    def test_non_finite_input_or_result_rejected(self, current, noise, pitch, name):
        geom = WaypointGeometry(pitch=pitch, yaw=0.0, lidar_distance=1.0, clearance=5.0)
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            next_waypoint(current, geom, noise)

    @pytest.mark.parametrize("current, noise, name", [
        ((0.0, 0.0), (0.0, 0.0), "current"),
        ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0), "current"),
        (("abc", 0.0, 0.0), (0.0, 0.0), "current"),
        (3.0, (0.0, 0.0), "current"),
        ("123", (0.0, 0.0), "current"),
        ((0.0, 0.0, 0.0), (0.0,), "noise"),
        ((0.0, 0.0, 0.0), (0.0, None), "noise"),
    ])
    def test_malformed_point_or_noise_rejected(self, current, noise, name):
        geom = WaypointGeometry(pitch=0.1, yaw=0.0, lidar_distance=1.0, clearance=5.0)
        with pytest.raises(InvalidInputError, match=f"{name} must be"):
            next_waypoint(current, geom, noise)

    @pytest.mark.parametrize("name", ["pitch", "yaw", "lidar_distance", "clearance",
                                      "lidar_std", "gimbal_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf,
                                       pytest.param(10**400, id="10**400"), "a", None])
    def test_non_finite_geometry_rejected(self, name, value):
        fields = dict(pitch=0.1, yaw=0.0, lidar_distance=1.0, clearance=5.0,
                      lidar_std=0.1, gimbal_std=0.01)
        fields[name] = value
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            WaypointGeometry(**fields)


class TestVerticalRecursion:
    def test_level_flight_fixed_point(self):
        # d sin(phi) == h keeps altitude constant
        h, phi = 5.0, math.pi / 6
        d = h / math.sin(phi)
        assert vertical_recursion(12.0, h, d, phi) == pytest.approx(12.0)

    def test_matches_waypoint_z_component(self, rng):
        for _ in range(1000):
            z0 = rng.uniform(-50, 50)
            h = rng.uniform(1, 30)
            d = rng.uniform(1, 100)
            phi = rng.uniform(0.05, math.pi / 2 - 0.05)
            v_d = rng.normal(0, 0.1)
            v_phi = rng.normal(0, 0.01)
            geom = WaypointGeometry(pitch=phi, yaw=rng.uniform(0, 2 * math.pi),
                                    lidar_distance=d, clearance=h)
            _, _, z1 = next_waypoint((0.0, 0.0, z0), geom, noise=(v_d, v_phi))
            z2 = vertical_recursion(z0, h, d, phi, v_d, v_phi)
            assert z1 == pytest.approx(z2, abs=1e-12)

    def test_linearization_in_range_noise(self):
        # the increment is linear in v_d with slope -sin(phi + v_phi)
        h, d, phi = 5.0, 40.0, 0.7
        base = vertical_recursion(0.0, h, d, phi, 0.0, 0.0)
        for v_d in (1e-3, 1e-6, 1e-9):
            slope = (vertical_recursion(0.0, h, d, phi, v_d, 0.0) - base) / v_d
            assert slope == pytest.approx(-math.sin(phi), rel=1e-6)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 20.0, 30.0, 0.5), "z_prev"),
        ((0.0, 20.0, 30.0, math.inf), "pitch"),
        ((0.0, 20.0, 30.0, 0.5, math.nan), "v_d"),
        ((0.0, 20.0, 30.0, 1e308, 0.0, 1e308), "noisy_pitch"),
        ((1e308, 1e308, 30.0, 0.5), "z_next"),
        ((10**400, 20.0, 30.0, 0.5), "z_prev"),
        ((0.0, 20.0, 30.0, "a"), "pitch"),
        ((0.0, 20.0, 30.0, 0.5, 0.0, None), "v_phi"),
    ])
    def test_non_finite_input_or_result_rejected(self, args, name):
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            vertical_recursion(*args)

    def test_linearization_in_pitch_noise(self):
        h, d, phi = 5.0, 40.0, 0.7
        base = vertical_recursion(0.0, h, d, phi, 0.0, 0.0)
        hh = 1e-7
        slope = (vertical_recursion(0.0, h, d, phi, 0.0, hh) - base) / hh
        assert slope == pytest.approx(-d * math.cos(phi), rel=1e-5)


class TestWaypointStd:
    def test_vertical_endpoint(self):
        assert waypoint_std(50.0, math.pi / 2, 0.05, 0.002) == pytest.approx(
            0.05, abs=1e-12)

    def test_horizontal_endpoint(self):
        assert waypoint_std(50.0, 0.0, 0.05, 0.002) == pytest.approx(
            50.0 * 0.002, abs=1e-12)

    def test_monte_carlo_oracle(self):
        d, phi, s_l, s_g = 50.0, math.pi / 4, 0.05, 0.002
        rng = np.random.default_rng(2024)
        n = 1_000_000
        v_d = rng.normal(0.0, s_l, n)
        v_phi = rng.normal(0.0, s_g, n)
        dz = -(d + v_d) * np.sin(phi + v_phi)  # clearance offset is constant
        analytic = waypoint_std(d, phi, s_l, s_g)
        assert analytic == pytest.approx(float(dz.std()), rel=0.02)

    def test_invalid_distance(self):
        with pytest.raises(InvalidInputError):
            waypoint_std(0.0, 0.5, 0.05, 0.002)

    @pytest.mark.parametrize("position", [2, 3], ids=["lidar_std", "gimbal_std"])
    def test_negative_std_rejected(self, position):
        # as WaypointGeometry rejects them
        args = [10.0, 0.5, 0.1, 0.1]
        args[position] = -1.0
        with pytest.raises(InvalidInputError, match="must be non-negative"):
            waypoint_std(*args)

    @pytest.mark.parametrize("position, name", enumerate(
        ["lidar_distance", "pitch", "lidar_std", "gimbal_std"]))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="10**400"), "a"])
    def test_non_finite_input_rejected(self, position, name, value):
        args = [20.0, 0.5, 0.05, 0.002]
        args[position] = value
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            waypoint_std(*args)

    def test_overflow_rejected(self):
        with pytest.raises(InvalidInputError, match="waypoint_std must be finite"):
            waypoint_std(1e200, 0.0, 0.1, 1e200)
