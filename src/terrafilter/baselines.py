"""Comparison filters: normalized LMS, static-lambda RLS, gradient-adapted
variable-forgetting-factor RLS, and a bootstrap particle filter.

All four share the StreamingFilter surface (fit on an init window, one
prediction per subsequent sample) so the benchmark can drive them and the
adaptive filter over identical traces.
"""

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .base import (GAIN_DENOMINATOR_FLOOR, CovarianceInit, Degree, ForgettingFactorCore,
                   Interval, NonNegative, Positive, Seed, StreamingFilter, all_finite)
from .exceptions import InvalidInputError, NumericalDivergenceError
# batch_least_squares stays a module global here: perfbench's tracer patches it
from .regression import batch_least_squares, poly_basis  # noqa: F401

# The most particles a particle filter may hold: 2,000 times the default
# 500. ``fit`` builds them as a list, and each step loops over them.
MAX_PARTICLE_COUNT = 1_000_000


@dataclass(eq=False)
class NormalizedLms(StreamingFilter):
    """Normalized LMS on a polynomial regressor.

    theta <- theta + mu * r * phi / (eps + phi^T phi). The default degree
    is 0, a level tracker: per-step corrections then equal mu times the
    residual, which is the stable configuration for an unbounded time
    abscissa (higher degrees leave parameter error components undamped in
    directions the instantaneous regressor cannot see, and those grow with
    powers of scaled time).
    """

    degree: Degree = 0
    mu: Annotated[float, Interval(0, 2, ends="()")] = 0.3
    eps: Positive = 1e-8
    init_window: int = 100
    scale_divisor: Positive = 100.0

    def step(self, t_raw: float, y: float) -> float:
        phi, y, prediction = self._predict(t_raw, y)
        residual = y - prediction
        self.theta_ = self.theta_ + self.mu * residual * phi / (self.eps + float(phi.dot(phi)))
        self.step_index_ += 1
        return prediction

    def _lockstep_step(self, s, phi, residual):
        norm = np.matmul(phi[:, None, :], phi[:, :, None])[:, 0, 0]
        s.theta_ = (s.theta_
                    + (self.mu * residual)[:, None] * phi / (self.eps + norm)[:, None])
        return ()


@dataclass(eq=False)
class StaticRls(ForgettingFactorCore):
    """Exponentially weighted RLS with a fixed forgetting factor.

    No outlier gate and no variance recursion; otherwise the update chain
    matches the adaptive filter with lambda frozen. With forgetting = 1 and
    covariance_init = "gram" the recursion equals growing-window batch
    least squares.
    """

    forgetting: Annotated[float, Interval(GAIN_DENOMINATOR_FLOOR, 1)] = 0.96
    degree: Degree = 4
    init_window: int = 100
    scale_divisor: Positive = 100.0
    covariance_init: CovarianceInit = "gram"

    def step(self, t_raw: float, y: float) -> float:
        phi, y, prediction = self._predict(t_raw, y)
        self._absorb(phi, self.forgetting, y - prediction)
        return prediction

    def _lockstep_step(self, s, phi, residual):
        self._absorb_rows(s, phi, np.full(len(residual), float(self.forgetting)), residual)
        return ()


@dataclass(eq=False)
class GvffRls(ForgettingFactorCore):
    """RLS whose forgetting factor descends the expected squared a-priori
    error, using the sensitivity recursions of the gradient-based
    variable-forgetting-factor method.

    State carries, besides theta and the covariance factor, the matrix
    sensitivity S = dP/dlambda and the vector sensitivity psi = dtheta/dlambda:

        lambda <- clip(lambda + alpha * e * phi^T psi)
        S <- (1/lambda) [(I - K phi^T) S (I - phi K^T) + K K^T - P]
        psi <- (I - K phi^T) psi + S phi e

    No outlier gate, by design.
    """

    alpha: float = 1e-3
    lambda_min: float = 0.85
    lambda_max: float = 0.95
    lambda_init: float = 0.90
    degree: Degree = 4
    init_window: int = 100
    scale_divisor: Positive = 100.0
    covariance_init: CovarianceInit = "gram"

    def _validate_params(self):
        super()._validate_params()
        if not (GAIN_DENOMINATOR_FLOOR <= self.lambda_min <= self.lambda_init
                <= self.lambda_max <= 1.0):
            raise InvalidInputError(f"need {GAIN_DENOMINATOR_FLOOR} <= lambda_min "
                                    "<= lambda_init <= lambda_max <= 1")

    def _init_state(self, fit, taus):
        super()._init_state(fit, taus)
        n = self.degree + 1
        self.lambda_ = self.lambda_init
        self.S_ = np.zeros((n, n))
        self.psi_ = np.zeros(n)

    def step(self, t_raw: float, y: float) -> float:
        phi, y, prediction = self._predict(t_raw, y)
        e = y - prediction
        try:
            phi_psi = float(phi.dot(self.psi_))
        except RuntimeWarning:  # an error filter's overflow: the guard words it as run does
            with np.errstate(all="ignore"):
                phi_psi = float(phi.dot(self.psi_))
        self.lambda_ = self._clip_lambda(self.lambda_ + self.alpha * e * phi_psi)
        gain = self._absorb(phi, self.lambda_, e)
        try:
            self.S_, self.psi_ = self._sensitivities(phi, gain, phi_psi, e)
        except RuntimeWarning:  # redone from the unchanged state, then guarded below
            with np.errstate(all="ignore"):
                self.S_, self.psi_ = self._sensitivities(phi, gain, phi_psi, e)
        if not all_finite(self.psi_):
            # _absorb has closed the step already
            raise NumericalDivergenceError(
                "sensitivity vector became non-finite", self.step_index_ - 1
            )
        return prediction

    def _sensitivities(self, phi, gain, phi_psi, e):
        """The next ``(S_, psi_)``, computed without changing the state."""
        gain_col = gain[:, None]
        # (I - K phi^T) S (I - phi K^T) via two rank-1 corrections
        AS = self.S_ - gain_col * phi.dot(self.S_)
        ASA = AS - AS.dot(phi)[:, None] * gain
        S = (ASA + gain_col * gain - self.L_.dot(self.L_.T)) / self.lambda_
        return S, self.psi_ - gain * phi_psi + S.dot(phi) * e

    _LOCKSTEP_STATE = ForgettingFactorCore._LOCKSTEP_STATE + ("lambda_", "S_", "psi_")

    def _lockstep_step(self, s, phi, e):
        phi_psi = np.matmul(phi[:, None, :], s.psi_[:, :, None])[:, 0, 0]
        s.lambda_ = np.minimum(np.maximum(s.lambda_ + self.alpha * e * phi_psi,
                                          self.lambda_min), self.lambda_max)
        gain = self._absorb_rows(s, phi, s.lambda_, e)
        gain_col = gain[:, :, None]
        gain_row = gain[:, None, :]
        AS = s.S_ - gain_col * np.matmul(phi[:, None, :], s.S_)
        ASA = AS - np.matmul(AS, phi[:, :, None]) * gain_row
        P = np.matmul(s.L_, s.L_.transpose(0, 2, 1))
        s.S_ = (ASA + gain_col * gain_row - P) / s.lambda_[:, None, None]
        s.psi_ = (s.psi_ - gain * phi_psi[:, None]
                  + np.matmul(s.S_, phi[:, :, None])[:, :, 0] * e[:, None])
        s.mark_nonfinite(s.psi_)
        return ()


@dataclass(eq=False)
class BootstrapParticleFilter(StreamingFilter):
    """Scalar bootstrap particle filter with systematic resampling.

    Random-walk state, Gaussian measurement likelihood, resampling when the
    effective sample size drops below ``resample_threshold * particle_count``.
    The prediction is the likelihood-weighted particle mean. Particles are
    initialized around the init window's last fitted value.

    Propagation and weighting run per particle; the per-step cost is the
    point of this baseline, not a target for optimization.
    """

    particle_count: Annotated[int, Interval(2, MAX_PARTICLE_COUNT)] = 500
    process_std: NonNegative = 0.09
    measurement_std: Positive = 0.3
    resample_threshold: Annotated[float, Interval(0, 1, ends="(]")] = 0.5
    seed: Seed = 0
    degree: Degree = 4
    init_window: int = 100
    scale_divisor: Positive = 100.0

    def _validate_params(self):
        super()._validate_params()
        r2 = self.measurement_std * self.measurement_std
        try:
            finite = r2 > 0 and math.isfinite(0.5 / r2)
        except OverflowError:  # an integer whose square is beyond the float range
            finite = False
        if not finite:
            raise InvalidInputError("0.5 / measurement_std**2 must be finite, "
                                    f"got measurement_std={self.measurement_std!r}")

    def _init_state(self, fit, taus):
        # no theta_: the particles start around the fit's last window value
        anchor = float(poly_basis(taus[-1], self.degree) @ fit.theta)
        self.rng_ = np.random.default_rng(self.seed)
        n = self.particle_count
        self.particles_ = [
            anchor + self.rng_.normal(0.0, self.measurement_std) for _ in range(n)
        ]
        self.weights_ = [1.0 / n] * n
        self.degenerate_steps_ = 0

    def step(self, t_raw: float, y: float) -> float:
        self._check_fitted()
        t_raw, y = self._advance_clock(t_raw, y)
        n = self.particle_count
        rng = self.rng_
        q = self.process_std
        inv_two_r2 = 0.5 / (self.measurement_std * self.measurement_std)

        for i in range(n):
            self.particles_[i] += rng.normal(0.0, q)

        total = 0.0
        for i in range(n):
            diff = y - self.particles_[i]
            w = self.weights_[i] * math.exp(-diff * diff * inv_two_r2)
            self.weights_[i] = w
            total += w

        if total <= 0.0 or not math.isfinite(total):
            # measurement is astronomically far from every particle
            self.weights_ = [1.0 / n] * n
            self.degenerate_steps_ += 1
        else:
            for i in range(n):
                self.weights_[i] /= total

        prediction = 0.0
        sum_sq = 0.0
        for i in range(n):
            prediction += self.weights_[i] * self.particles_[i]
            sum_sq += self.weights_[i] * self.weights_[i]
        if not math.isfinite(prediction):
            raise NumericalDivergenceError(
                "prediction became non-finite", self.step_index_
            )
        self.step_index_ += 1

        if 1.0 / sum_sq < self.resample_threshold * n:
            self._systematic_resample()
        return prediction

    def _systematic_resample(self):
        n = self.particle_count
        positions = (np.arange(n) + self.rng_.random()) / n
        cumulative = np.cumsum(self.weights_)
        cumulative[-1] = 1.0
        indices = np.searchsorted(cumulative, positions)
        self.particles_ = [self.particles_[min(k, n - 1)] for k in indices]
        self.weights_ = [1.0 / n] * n
