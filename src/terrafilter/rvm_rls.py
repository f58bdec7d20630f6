"""Residual-variance-matching recursive least squares.

The filter couples two recursions: the forgetting-factor estimator adapts
lambda by gradient descent on the squared gap between a recursively
estimated residual variance and a target noise variance, and the parameter
estimator runs an exponentially weighted least-squares update with the
adapted lambda. Residuals beyond three target standard deviations are
treated as outliers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .base import ForgettingFactorCore
from .exceptions import InvalidInputError, NumericalDivergenceError


def variance_cost(sigma2_prev: float, residual: float, lam: float,
                  cost_gain: float, sigma2_target: float):
    """One step of the residual-variance recursion with its matching cost.

    Returns ``(sigma2_next, cost, gradient)`` where

        sigma2_next = lam * sigma2_prev + (1 - lam) * residual**2
        cost        = cost_gain * (sigma2_next - sigma2_target)**2
        gradient    = d cost / d lam
                    = 2 * cost_gain * (sigma2_next - sigma2_target)
                        * (sigma2_prev - residual**2)
    """
    for name, val in (("sigma2_prev", sigma2_prev), ("residual", residual),
                      ("lam", lam), ("cost_gain", cost_gain),
                      ("sigma2_target", sigma2_target)):
        if not math.isfinite(val):
            raise InvalidInputError(f"{name} must be finite")
    r2 = residual * residual
    sigma2_next = lam * sigma2_prev + (1.0 - lam) * r2
    mismatch = sigma2_next - sigma2_target
    cost = cost_gain * mismatch * mismatch
    gradient = 2.0 * cost_gain * mismatch * (sigma2_prev - r2)
    return sigma2_next, cost, gradient


@dataclass(frozen=True)
class StepOutput:
    """Per-step diagnostic record.

    On rejected steps ``residual`` holds the raw (pre-gating) residual;
    ``lambda_after`` and ``sigma2_hat_after`` are the values left in the
    filter state once the step finished. When a rejection is skipped
    entirely, ``cost`` reports the standing variance-mismatch cost and
    ``gradient`` is zero (no descent step was applied).
    """

    prediction: float
    residual: float
    rejected: bool
    lambda_after: float
    sigma2_hat_after: float
    cost: float
    gradient: float


class RvmRls(ForgettingFactorCore):
    """Adaptive-forgetting recursive least squares with a 3-sigma gate.

    Parameters
    ----------
    degree : polynomial degree of the regressor.
    step_size : gradient-descent step for the forgetting factor.
    cost_gain : proportionality constant in the variance-matching cost.
    lambda_min, lambda_max : clip range of the forgetting factor.
    lambda_init : starting forgetting factor (clipped into range).
    target_noise_variance : known measurement-noise variance used as the
        matching target and the outlier gate; ``None`` uses the
        initialization window's residual variance estimate.
    init_window : number of leading samples consumed by ``fit``.
    scale_divisor : raw time units per scaled unit fed to the basis.
    outlier_gate : disable to let every residual through (used by the
        batch-equivalence oracle).
    covariance_init : "residual" scales the covariance factor by the
        window's residual variance (the batch parameter covariance);
        "gram" uses the bare normal-equation inverse, which makes the
        lambda = 1 recursion coincide with growing-window least squares.
    rejected_update : what a gated sample does to the state. "skip" leaves
        the entire state untouched; "recurse" pushes the zeroed residual
        through the variance, lambda, gain, and covariance recursions.
        Skipping avoids covariance growth during rejection streaks, which
        otherwise can wind up the filter beyond recovery (see README).
    """

    def __init__(self, degree: int = 4, step_size: float = 1e-3,
                 cost_gain: float = 20.0, lambda_min: float = 0.85,
                 lambda_max: float = 0.95, lambda_init: float = 0.90,
                 target_noise_variance: float | None = None,
                 init_window: int = 100, scale_divisor: float = 100.0,
                 outlier_gate: bool = True, covariance_init: str = "residual",
                 rejected_update: str = "skip"):
        self.degree = degree
        self.step_size = step_size
        self.cost_gain = cost_gain
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max
        self.lambda_init = lambda_init
        self.target_noise_variance = target_noise_variance
        self.init_window = init_window
        self.scale_divisor = scale_divisor
        self.outlier_gate = outlier_gate
        self.covariance_init = covariance_init
        self.rejected_update = rejected_update

    def _validate_params(self):
        if not (0.0 < self.lambda_min <= self.lambda_max <= 1.0):
            raise InvalidInputError("need 0 < lambda_min <= lambda_max <= 1")
        if self.step_size <= 0 or self.cost_gain <= 0:
            raise InvalidInputError("step_size and cost_gain must be positive")
        if self.degree < 0 or self.init_window < self.degree + 2:
            raise InvalidInputError("init_window must be at least degree + 2")
        if self.target_noise_variance is not None and self.target_noise_variance < 0:
            raise InvalidInputError("target_noise_variance must be non-negative")
        if self.rejected_update not in ("skip", "recurse"):
            raise InvalidInputError("rejected_update must be 'skip' or 'recurse'")

    def fit(self, times, measurements):
        """Initialize from exactly ``init_window`` samples via batch least
        squares: theta and the covariance factor from the window fit, the
        residual-variance estimate from the fit's SSE / (n - degree - 1)."""
        self._validate_params()
        if len(times) != self.init_window:
            raise InvalidInputError(
                f"fit expects exactly init_window={self.init_window} samples, "
                f"got {len(times)}"
            )
        fit = self._init_from_window(times, measurements)
        self.sigma2_hat_ = fit.residual_variance
        if self.target_noise_variance is not None:
            self.sigma2_target_ = float(self.target_noise_variance)
        else:
            self.sigma2_target_ = fit.residual_variance
        self.lambda_ = min(max(self.lambda_init, self.lambda_min), self.lambda_max)
        return self

    def step_detailed(self, t_raw: float, y: float) -> StepOutput:
        """Process one sample and return the full diagnostic record.

        Order of operations: predict, residual, 3-sigma gate, variance
        recursion and cost gradient, forgetting-factor descent with clip,
        then the least-squares gain/parameter/covariance updates under the
        new lambda.
        """
        self._check_fitted()
        t_raw, y = self._advance_clock(t_raw, y)

        phi = self._basis_at(t_raw)
        prediction = float(phi @ self.theta_)
        if not math.isfinite(prediction):
            raise NumericalDivergenceError(
                "prediction became non-finite", self.step_index_
            )
        raw_residual = y - prediction
        rejected = (
            self.outlier_gate
            and abs(raw_residual) > 3.0 * math.sqrt(self.sigma2_target_)
        )

        if rejected and self.rejected_update == "skip":
            self.step_index_ += 1
            mismatch = self.sigma2_hat_ - self.sigma2_target_
            return StepOutput(
                prediction=prediction,
                residual=raw_residual,
                rejected=True,
                lambda_after=self.lambda_,
                sigma2_hat_after=self.sigma2_hat_,
                cost=self.cost_gain * mismatch * mismatch,
                gradient=0.0,
            )

        residual = 0.0 if rejected else raw_residual
        sigma2_next, cost, gradient = variance_cost(
            self.sigma2_hat_, residual, self.lambda_,
            self.cost_gain, self.sigma2_target_,
        )
        self.sigma2_hat_ = sigma2_next
        self.lambda_ = min(
            max(self.lambda_ - self.step_size * gradient, self.lambda_min),
            self.lambda_max,
        )
        gain = self._gain_update(phi, self.lambda_)
        self.theta_ = self.theta_ + gain * residual
        if not np.isfinite(self.theta_).all():
            raise NumericalDivergenceError(
                "parameter vector became non-finite", self.step_index_
            )
        self.step_index_ += 1
        return StepOutput(
            prediction=prediction,
            residual=raw_residual,
            rejected=rejected,
            lambda_after=self.lambda_,
            sigma2_hat_after=self.sigma2_hat_,
            cost=cost,
            gradient=gradient,
        )

    def step(self, t_raw: float, y: float) -> float:
        return self.step_detailed(t_raw, y).prediction

    def run_detailed(self, times, measurements) -> list[StepOutput]:
        """Fit on the leading window, then step through the remainder,
        collecting every StepOutput. A trace exactly init_window long
        yields an empty list."""
        return self._drive(times, measurements, self.step_detailed)
