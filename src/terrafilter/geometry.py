"""Waypoint geometry for gimbal-mounted rangefinder terrain following.

The vehicle at the current waypoint measures a slant range d at gimbal
pitch phi and heading psi; the next waypoint sits above the measured ground
point at the commanded clearance h. The vertical component dominates
terrain-following accuracy, so its uncertainty gets a closed form.
"""

import math
from dataclasses import dataclass

from .base import (NonNegative, Positive, check_numbers, describe, is_finite_number,
                   require_type)
from .exceptions import InvalidInputError
from .regression import _float_array


def _require_finite(**values):
    """Reject a value, or tuple entry, among ``values`` that is no finite number."""
    for name, value in values.items():
        if not all(map(is_finite_number, value if isinstance(value, tuple) else (value,))):
            raise InvalidInputError(f"{name} must be finite, got {describe(value)}")


def _floats(name, value, count):
    """``value`` as a tuple of ``count`` floats; anything else, a string of
    digits included, is an InvalidInputError naming it."""
    try:
        values = _float_array(value)
        counted = values.shape == (count,)
    except (TypeError, ValueError, OverflowError):
        counted = False
    if not counted:
        raise InvalidInputError(f"{name} must be {count} numbers, got {describe(value)}")
    return tuple(values.tolist())


@dataclass(frozen=True)
class WaypointGeometry:
    """One ranging configuration: gimbal pitch/yaw, slant distance,
    commanded clearance, and the sensor noise standard deviations."""

    pitch: float
    yaw: float
    lidar_distance: Positive
    clearance: float
    lidar_std: NonNegative = 0.0
    gimbal_std: NonNegative = 0.0

    __post_init__ = check_numbers


def next_waypoint(current, geom: WaypointGeometry, noise=(0.0, 0.0)):
    """Advance one waypoint given a noisy range/pitch observation.

    ``noise`` is (v_d, v_phi), the rangefinder and gimbal errors:

        x' = x + h cos(phi + v_phi) cos(psi)
        y' = y + h cos(phi + v_phi) sin(psi)
        z' = z + h - (d + v_d) sin(phi + v_phi)
    """
    require_type("geom", geom, WaypointGeometry)
    x, y, z = _floats("current", current, 3)
    v_d, v_phi = _floats("noise", noise, 2)
    pitch = geom.pitch + v_phi
    _require_finite(current=(x, y, z), noise=(v_d, v_phi), noisy_pitch=pitch)
    h = geom.clearance
    waypoint = (
        x + h * math.cos(pitch) * math.cos(geom.yaw),
        y + h * math.cos(pitch) * math.sin(geom.yaw),
        z + h - (geom.lidar_distance + v_d) * math.sin(pitch),
    )
    _require_finite(next_waypoint=waypoint)
    return waypoint


def waypoint_std(geom: WaypointGeometry) -> float:
    """First-order standard deviation of the vertical waypoint increment:

        sigma_dz = sqrt(sin^2(phi) sigma_lidar^2 + d^2 cos^2(phi) sigma_gimbal^2)

    At phi = pi/2 only the rangefinder matters; at phi = 0 only the gimbal
    does, amplified by the slant distance. Reads the geometry's
    ``lidar_distance``, ``pitch``, ``lidar_std`` and ``gimbal_std``.
    """
    require_type("geom", geom, WaypointGeometry)
    d, s_l, s_g = geom.lidar_distance, geom.lidar_std, geom.gimbal_std
    s, c = math.sin(geom.pitch), math.cos(geom.pitch)
    std = math.sqrt(s * s * s_l * s_l + d * d * c * c * s_g * s_g)
    _require_finite(waypoint_std=std)
    return std
