import math

import numpy as np
import pytest

from terrafilter import (InvalidInputError, WaypointGeometry, next_waypoint,
                         waypoint_std)


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
        with pytest.raises(InvalidInputError):
            WaypointGeometry(pitch=0.1, yaw=0.0, lidar_distance=1.0,
                             clearance=5.0, gimbal_std=-0.1)

    @pytest.mark.parametrize("call", [
        lambda geom: next_waypoint((0.0, 0.0, 0.0), geom),
        lambda geom: waypoint_std(geom),
    ], ids=["next_waypoint", "waypoint_std"])
    @pytest.mark.parametrize("geom", [None, (0.1, 0.0, 1.0, 5.0)], ids=["None", "tuple"])
    def test_geometry_must_be_a_waypoint_geometry(self, call, geom):
        with pytest.raises(InvalidInputError, match="geom must be a WaypointGeometry"):
            call(geom)

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
        (("1", "2", "3"), (0.0, 0.0), "current"),
    ])
    def test_malformed_point_or_noise_rejected(self, current, noise, name):
        geom = WaypointGeometry(pitch=0.1, yaw=0.0, lidar_distance=1.0, clearance=5.0)
        with pytest.raises(InvalidInputError, match=f"{name} must be"):
            next_waypoint(current, geom, noise)

    @pytest.mark.parametrize("name", ["pitch", "yaw", "lidar_distance", "clearance",
                                      "lidar_std", "gimbal_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="10**400"), "a", None])
    def test_non_finite_geometry_rejected(self, name, value):
        fields = dict(pitch=0.1, yaw=0.0, lidar_distance=1.0, clearance=5.0,
                      lidar_std=0.1, gimbal_std=0.01)
        fields[name] = value
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            WaypointGeometry(**fields)


class TestVerticalRecursion:
    """next_waypoint's z line, the vertical recursion
    z' = z + h - (d + v_d) sin(phi + v_phi)."""

    @staticmethod
    def z_next(z_prev, clearance, lidar_distance, pitch, v_d=0.0, v_phi=0.0):
        geom = WaypointGeometry(pitch=pitch, yaw=0.0, lidar_distance=lidar_distance,
                                clearance=clearance)
        return next_waypoint((0.0, 0.0, z_prev), geom, noise=(v_d, v_phi))[2]

    def test_level_flight_fixed_point(self):
        # d sin(phi) == h keeps altitude constant
        h, phi = 5.0, math.pi / 6
        d = h / math.sin(phi)
        assert self.z_next(12.0, h, d, phi) == pytest.approx(12.0)

    def test_linearization_in_range_noise(self):
        # the increment is linear in v_d with slope -sin(phi + v_phi)
        h, d, phi = 5.0, 40.0, 0.7
        base = self.z_next(0.0, h, d, phi, 0.0, 0.0)
        for v_d in (1e-3, 1e-6, 1e-9):
            slope = (self.z_next(0.0, h, d, phi, v_d, 0.0) - base) / v_d
            assert slope == pytest.approx(-math.sin(phi), rel=1e-6)

    def test_linearization_in_pitch_noise(self):
        h, d, phi = 5.0, 40.0, 0.7
        base = self.z_next(0.0, h, d, phi, 0.0, 0.0)
        hh = 1e-7
        slope = (self.z_next(0.0, h, d, phi, 0.0, hh) - base) / hh
        assert slope == pytest.approx(-d * math.cos(phi), rel=1e-5)


class TestWaypointStd:
    @staticmethod
    def std(d, phi, s_l, s_g):
        return waypoint_std(WaypointGeometry(pitch=phi, yaw=0.0, lidar_distance=d,
                                             clearance=5.0, lidar_std=s_l, gimbal_std=s_g))

    def test_vertical_endpoint(self):
        assert self.std(50.0, math.pi / 2, 0.05, 0.002) == pytest.approx(
            0.05, abs=1e-12)

    def test_horizontal_endpoint(self):
        assert self.std(50.0, 0.0, 0.05, 0.002) == pytest.approx(
            50.0 * 0.002, abs=1e-12)

    def test_monte_carlo_oracle(self):
        d, phi, s_l, s_g = 50.0, math.pi / 4, 0.05, 0.002
        rng = np.random.default_rng(2024)
        n = 1_000_000
        v_d = rng.normal(0.0, s_l, n)
        v_phi = rng.normal(0.0, s_g, n)
        dz = -(d + v_d) * np.sin(phi + v_phi)  # clearance offset is constant
        analytic = self.std(d, phi, s_l, s_g)
        assert analytic == pytest.approx(float(dz.std()), rel=0.02)

    def test_overflow_rejected(self):
        with pytest.raises(InvalidInputError, match="waypoint_std must be finite"):
            self.std(1e200, 0.0, 0.1, 1e200)
