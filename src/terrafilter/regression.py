"""Polynomial regressors and windowed batch least squares.

Every filter in the package models the measurement stream as a polynomial
in scaled time tau = t_raw / scale_divisor and shares this module for basis
construction and batch initialization.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientDataError, InvalidInputError, SingularFitError

# Relative singular-value cutoff below which a design matrix is treated as
# rank deficient.
RANK_TOLERANCE = 1e-10
# The largest polynomial degree. Degree 4 already drives the Gram
# conditioning to ~1e20, so no larger degree is usable in double precision.
MAX_DEGREE = 10


def _degree_error(degree) -> InvalidInputError:
    from .base import describe  # base imports this module

    return InvalidInputError(f"degree must lie in [0, {MAX_DEGREE}], got {describe(degree)}")


def _float_array(values) -> np.ndarray:
    """``values`` as a float array. Strings and bytes are refused, though
    numpy would parse "1" and b"1"; anything else numpy cannot convert is a
    TypeError, ValueError or OverflowError."""
    array = np.asarray(values)
    if array.dtype.kind in "SU" or (array.dtype.kind == "O" and any(
            isinstance(v, (str, bytes)) for v in array.flat)):
        raise TypeError("strings and bytes are not numbers")
    return array.astype(float, copy=False)


def _as_trace(times, measurements, names="times and measurements"):
    """``times`` and ``measurements`` as 1-D float arrays of equal shape;
    anything else, values ``_float_array`` refuses included, is an
    InvalidInputError naming them by ``names``."""
    try:
        times, measurements = _float_array(times), _float_array(measurements)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{names} must be numbers ({exc})") from None
    if times.ndim != 1 or times.shape != measurements.shape:
        raise InvalidInputError(f"{names} must be 1-D and match in length")
    return times, measurements


def poly_basis(tau: float, degree: int) -> np.ndarray:
    """Return the polynomial regressor [1, tau, tau^2, ..., tau^degree].

    Each entry is the previous entry times tau, so entry k is exactly tau**k.
    The chain runs on Python floats, whose multiply rounds as numpy's does.
    """
    if not 0 <= degree <= MAX_DEGREE:
        raise _degree_error(degree)
    tau = float(tau)
    if not math.isfinite(tau):
        raise InvalidInputError("tau must be finite")
    row = [1.0]
    for _ in range(degree):
        row.append(row[-1] * tau)
    return np.array(row)


@dataclass
class BatchFit:
    """Result of a windowed least-squares fit.

    ``gram_inverse_root`` is a matrix R with R R^T = (Phi^T Phi)^-1;
    recursive filters use it to seed their covariance factor without ever
    forming the explicit inverse.
    """

    theta: np.ndarray
    residual_variance: float
    gram_inverse_root: np.ndarray


def batch_least_squares(taus, ys, degree: int) -> BatchFit:
    """Least-squares polynomial fit over a window of (tau, y) samples.

    Solves via SVD (rank revealing); the normal-equation inverse is never
    materialized. Residual variance uses the degrees-of-freedom denominator
    M = n - degree - 1. ``degree`` is an integer in [0, MAX_DEGREE] other
    than a bool.
    """
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral):
        raise InvalidInputError(f"degree must be an integer, got {degree!r}")
    if not 0 <= degree <= MAX_DEGREE:
        raise _degree_error(degree)
    taus, ys = _as_trace(taus, ys, "taus and ys")
    if not (np.isfinite(taus).all() and np.isfinite(ys).all()):
        raise InvalidInputError("samples must be finite")
    n = len(taus)
    dof = n - degree - 1
    if dof < 1:
        raise InsufficientDataError(f"need at least degree + 2 = {degree + 2} samples, got {n}")

    with np.errstate(over="ignore"):  # an overflow is rejected just below
        design = np.vander(taus, degree + 1, increasing=True)
    if not np.isfinite(design).all():
        raise InvalidInputError(f"tau**{degree} overflows: the scaled times are too large")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] < RANK_TOLERANCE * s[0]:
        raise SingularFitError(
            f"design matrix is rank deficient (sv ratio {s[-1] / s[0]:.3e})"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        theta = vt.T @ ((u.T @ ys) / s)
        resid = ys - design @ theta
        residual_variance = float(resid @ resid) / dof
    if not math.isfinite(residual_variance):
        raise InvalidInputError("the residual variance overflows: the measurements are too large")
    return BatchFit(theta, residual_variance, vt.T / s)
