"""Residual-variance-matching recursive least squares.

The filter couples two recursions: the forgetting-factor estimator adapts
lambda by gradient descent on the squared gap between a recursively
estimated residual variance and a target noise variance, and the parameter
estimator runs an exponentially weighted least-squares update with the
adapted lambda. A residual beyond three target standard deviations marks
its sample as an outlier, which leaves the state untouched.
"""

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .base import GAIN_DENOMINATOR_FLOOR, CovarianceInit, Degree, ForgettingFactorCore, Positive
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
    return _variance_cost(sigma2_prev, residual, lam, cost_gain, sigma2_target)


def _variance_cost(sigma2_prev, residual, lam, cost_gain, sigma2_target):
    """``variance_cost``'s arithmetic without its checks, on floats or on
    arrays of one entry per lockstep row."""
    r2 = residual * residual
    sigma2_next = lam * sigma2_prev + (1.0 - lam) * r2
    mismatch = sigma2_next - sigma2_target
    cost = cost_gain * mismatch * mismatch
    gradient = 2.0 * cost_gain * mismatch * (sigma2_prev - r2)
    return sigma2_next, cost, gradient


@dataclass(frozen=True)
class StepOutput:
    """Per-step diagnostic record: its fields, in order, are the fig4
    columns (``_LOCKSTEP_COLUMNS``).

    ``residual`` is the measurement minus the prediction, gated or not;
    ``lambda_after`` and ``sigma2_hat_after`` are the values left in the
    filter state once the step finished.
    """

    prediction: float
    residual: float
    rejected: bool
    lambda_after: float
    sigma2_hat_after: float


@dataclass(eq=False)
class RvmRls(ForgettingFactorCore):
    """Adaptive-forgetting recursive least squares with a 3-sigma gate.

    Parameters
    ----------
    degree : polynomial degree of the regressor.
    step_size : gradient-descent step for the forgetting factor.
    cost_gain : proportionality constant in the variance-matching cost.
    lambda_min, lambda_max : clip range of the forgetting factor.
    lambda_init : starting forgetting factor; must be finite, and is
        clipped into range.
    target_noise_variance : known measurement-noise variance used as the
        matching target and the outlier gate; ``None`` uses the
        initialization window's residual variance estimate.
    init_window : number of leading samples consumed by ``fit``.
    scale_divisor : raw time units per scaled unit fed to the basis.
    outlier_gate : disable to let every residual through (used by the
        batch-equivalence oracle); ``fit`` reads it, as it reads
        ``target_noise_variance``.
    covariance_init : "residual" scales the covariance factor by the
        window's residual variance (the batch parameter covariance);
        "gram" uses the bare normal-equation inverse, which makes the
        lambda = 1 recursion coincide with growing-window least squares.

    A gated sample leaves the whole state untouched (see README).
    """

    degree: Degree = 4
    step_size: Positive = 1e-3
    cost_gain: Positive = 20.0
    lambda_min: float = 0.85
    lambda_max: float = 0.95
    lambda_init: float = 0.90
    target_noise_variance: Positive | None = None
    init_window: int = 100
    scale_divisor: Positive = 100.0
    outlier_gate: bool = True
    covariance_init: CovarianceInit = "residual"

    def _validate_params(self):
        super()._validate_params()
        if not GAIN_DENOMINATOR_FLOOR <= self.lambda_min <= self.lambda_max <= 1.0:
            raise InvalidInputError(
                f"need {GAIN_DENOMINATOR_FLOOR} <= lambda_min <= lambda_max <= 1")

    def _init_state(self, fit, taus):
        """theta and the covariance factor from the window fit, the
        residual-variance estimate from the fit's SSE / (n - degree - 1),
        and the gate: three target standard deviations, or inf (which no
        residual passes) when ``outlier_gate`` is off."""
        super()._init_state(fit, taus)
        self.sigma2_hat_ = fit.residual_variance
        if self.target_noise_variance is not None:
            self.sigma2_target_ = float(self.target_noise_variance)
        else:
            self.sigma2_target_ = fit.residual_variance
        self.gate_ = 3.0 * math.sqrt(self.sigma2_target_) if self.outlier_gate else math.inf
        self.lambda_ = self._clip_lambda(self.lambda_init)

    def step_detailed(self, t_raw: float, y: float) -> StepOutput:
        """Process one sample and return the full diagnostic record.

        Order of operations: predict, residual, 3-sigma gate, variance
        recursion and cost gradient, forgetting-factor descent with clip,
        then the least-squares gain/parameter/covariance updates under the
        new lambda. A gated sample leaves the state as it was; only the
        step index advances.
        """
        phi, y, prediction = self._predict(t_raw, y)
        residual = y - prediction
        rejected = abs(residual) > self.gate_
        if rejected:
            self.step_index_ += 1
        else:
            self.sigma2_hat_, _, gradient = variance_cost(
                self.sigma2_hat_, residual, self.lambda_,
                self.cost_gain, self.sigma2_target_,
            )
            if not math.isfinite(self.sigma2_hat_):
                raise NumericalDivergenceError("variance estimate became non-finite",
                                               self.step_index_)
            self.lambda_ = self._clip_lambda(self.lambda_ - self.step_size * gradient)
            self._absorb(phi, self.lambda_, residual)
        return StepOutput(
            prediction=prediction,
            residual=residual,
            rejected=rejected,
            lambda_after=self.lambda_,
            sigma2_hat_after=self.sigma2_hat_,
        )

    def step(self, t_raw: float, y: float) -> float:
        return self.step_detailed(t_raw, y).prediction

    def _step_columns(self, t_raw, y):
        return self._STEP_FIELDS(self.step_detailed(t_raw, y))

    # -- lockstep ----------------------------------------------------------

    _LOCKSTEP_STATE = ForgettingFactorCore._LOCKSTEP_STATE + (
        "lambda_", "sigma2_hat_", "sigma2_target_", "gate_")
    # the fig4 columns: StepOutput's fields of the same meaning, in order
    _LOCKSTEP_COLUMNS = (("prediction", float), ("residual", float),
                         ("rejected", bool), ("lambda", float),
                         ("sigma2_hat", float))
    _STEP_FIELDS = operator.attrgetter(*(field.name for field in fields(StepOutput)))

    # the state a gated row keeps
    _GATED_STATE = operator.attrgetter("theta_", "L_", "f_order", "lambda_", "sigma2_hat_")

    def _lockstep_step(self, s, phi, residual):
        rejected = np.abs(residual) > s.gate_
        before = self._GATED_STATE(s)
        # a non-finite input or variance estimate always leaves a non-finite
        # gradient, so this mark covers variance_cost's and step's checks
        s.sigma2_hat_, _, gradient = _variance_cost(
            s.sigma2_hat_, residual, s.lambda_, self.cost_gain, s.sigma2_target_)
        s.mark_nonfinite(gradient)
        s.lambda_ = np.minimum(np.maximum(s.lambda_ - self.step_size * gradient,
                                          self.lambda_min), self.lambda_max)
        self._absorb_rows(s, phi, s.lambda_, residual)
        if rejected.any():
            # a gated row's update is dropped: it keeps its state
            for new, old in zip(self._GATED_STATE(s), before):
                new[rejected] = old[rejected]
        return residual, rejected, s.lambda_, s.sigma2_hat_
