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


def poly_basis(tau: float, degree: int) -> np.ndarray:
    """Return the polynomial regressor [1, tau, tau^2, ..., tau^degree].

    Each entry is the previous entry times tau, so entry k is exactly tau**k.
    The chain runs on Python floats, whose multiply rounds as numpy's does.
    """
    if degree < 0:
        raise InvalidInputError("degree must be non-negative")
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
    M = n - degree - 1. ``degree`` is a non-negative integer other than a
    bool.
    """
    from .base import describe  # base imports this module

    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 0:
        raise InvalidInputError(
            f"degree must be a non-negative integer, got {describe(degree)}")
    taus = np.asarray(taus, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if taus.ndim != 1 or taus.shape != ys.shape:
        raise InvalidInputError("taus and ys must be 1-D arrays of equal length")
    if not (np.isfinite(taus).all() and np.isfinite(ys).all()):
        raise InvalidInputError("samples must be finite")
    n = len(taus)
    dof = n - degree - 1
    if dof < 1:
        raise InsufficientDataError(
            f"need at least degree + 2 = {describe(degree + 2)} samples, got {n}"
        )

    with np.errstate(over="ignore"):  # an overflow is rejected just below
        design = np.vander(taus, degree + 1, increasing=True)
    if not np.isfinite(design).all():
        raise InvalidInputError(f"tau**{degree} overflows: the scaled times are too large")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] < RANK_TOLERANCE * s[0]:
        raise SingularFitError(
            f"design matrix is rank deficient (sv ratio {s[-1] / s[0]:.3e})"
        )

    theta = vt.T @ ((u.T @ ys) / s)
    resid = ys - design @ theta
    residual_variance = float(resid @ resid) / dof
    return BatchFit(theta, residual_variance, vt.T / s)
