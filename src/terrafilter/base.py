"""Estimator base class and the shared covariance-factor recursion.

Filters follow the scikit-learn estimator convention: hyperparameters are
plain constructor arguments stored verbatim, ``get_params``/``set_params``
round-trip them, fitted state lives in trailing-underscore attributes, and
``fit`` returns ``self``.
"""

import inspect
import math

import numpy as np

from .exceptions import InvalidInputError, NotFittedError, NumericalDivergenceError
from .regression import batch_least_squares, poly_basis

# Gain denominators below this are treated as a numerical collapse rather
# than silently dividing.
GAIN_DENOMINATOR_FLOOR = 1e-12


class StreamingFilter:
    """Common surface for all streaming filters.

    Lifecycle: construct with hyperparameters, ``fit`` on an initialization
    window of (time, measurement) samples, then ``step`` one sample at a
    time. ``run`` drives fit-then-step over a full trace and returns one
    prediction per post-window sample. Each prediction is made before the
    corresponding measurement is absorbed.

    A fitted filter is a single-threaded mutable value; independent
    instances may run concurrently.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise InvalidInputError(
                    f"invalid parameter {key!r} for {type(self).__name__}"
                )
            setattr(self, key, value)
        return self

    # -- subclass contract -------------------------------------------------

    def fit(self, times, measurements):  # pragma: no cover - interface
        raise NotImplementedError

    def step(self, t_raw: float, y: float) -> float:  # pragma: no cover
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _check_fitted(self):
        if not getattr(self, "is_fitted_", False):
            raise NotFittedError(f"{type(self).__name__} has not been fitted")

    def _validate_window(self, times, measurements):
        """Check the ``fit`` inputs and ``scale_divisor``; every filter's fit
        passes through here, no step does."""
        if not (math.isfinite(self.scale_divisor) and self.scale_divisor > 0):
            raise InvalidInputError(
                f"scale_divisor must be a positive finite number, got {self.scale_divisor!r}"
            )
        times = np.asarray(times, dtype=float)
        measurements = np.asarray(measurements, dtype=float)
        if times.ndim != 1 or times.shape != measurements.shape:
            raise InvalidInputError("times and measurements must match in length")
        if not (np.isfinite(times).all() and np.isfinite(measurements).all()):
            raise InvalidInputError("initialization window must be finite")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise InvalidInputError("times must be strictly increasing")
        return times, measurements

    def _advance_clock(self, t_raw: float, y: float):
        t_raw = float(t_raw)
        y = float(y)
        if not (math.isfinite(t_raw) and math.isfinite(y)):
            raise InvalidInputError("time and measurement must be finite")
        if t_raw <= self.last_time_:
            raise InvalidInputError(
                f"time must increase strictly (got {t_raw} after {self.last_time_})"
            )
        self.last_time_ = t_raw
        return t_raw, y

    def _drive(self, times, measurements, step) -> list:
        """Fit on the first ``init_window`` samples, then return
        ``step(t, y)`` for each remaining sample, in order."""
        times = np.asarray(times, dtype=float)
        measurements = np.asarray(measurements, dtype=float)
        n0 = self.init_window
        if len(times) < n0:
            raise InvalidInputError(
                f"trace shorter than the initialization window ({len(times)} < {n0})"
            )
        self.fit(times[:n0], measurements[:n0])
        return [step(times[j], measurements[j]) for j in range(n0, len(times))]

    def run(self, times, measurements) -> np.ndarray:
        """Fit on the first ``init_window`` samples, then step the rest.

        Returns one prediction per post-window sample.
        """
        return np.array(self._drive(times, measurements, self.step), dtype=float)


class ForgettingFactorCore(StreamingFilter):
    """Shared state for exponentially weighted recursive least squares.

    The inverse-autocorrelation matrix P is never stored directly: the
    filter propagates a square-root factor L with P = L L^T, which keeps P
    symmetric positive semidefinite by construction. One step of the
    factor recursion reproduces, in exact arithmetic,

        K = P phi / (lambda + phi^T P phi)
        P <- (P - K phi^T P) / lambda

    but survives condition numbers whose explicit-P form loses to roundoff.
    """

    def _init_from_window(self, times, measurements):
        times, measurements = self._validate_window(times, measurements)
        taus = times / self.scale_divisor
        fit = batch_least_squares(taus, measurements, self.degree)
        if self.covariance_init == "residual":
            self.L_ = math.sqrt(fit.residual_variance) * fit.gram_inverse_root
        elif self.covariance_init == "gram":
            self.L_ = fit.gram_inverse_root.copy()
        else:
            raise InvalidInputError(
                f"covariance_init must be 'residual' or 'gram', got {self.covariance_init!r}"
            )
        self.theta_ = fit.theta.copy()
        self.last_time_ = float(times[-1])
        self.step_index_ = len(times)
        self.is_fitted_ = True
        return fit

    def _basis_at(self, t_raw: float) -> np.ndarray:
        return poly_basis(t_raw / self.scale_divisor, self.degree)

    def _gain_update(self, phi: np.ndarray, lam: float) -> np.ndarray:
        """Advance the covariance factor under forgetting factor ``lam`` and
        return the gain vector K."""
        v = self.L_.T @ phi
        vv = float(v @ v)
        denom = lam + vv
        if denom < GAIN_DENOMINATOR_FLOOR:
            raise NumericalDivergenceError(
                "gain denominator collapsed", self.step_index_
            )
        Lv = self.L_ @ v
        K = Lv / denom
        if vv > 0.0:
            beta = (1.0 - math.sqrt(lam / denom)) / vv
            self.L_ = (self.L_ - beta * np.outer(Lv, v)) / math.sqrt(lam)
        else:
            self.L_ = self.L_ / math.sqrt(lam)
        if not np.isfinite(K).all():
            raise NumericalDivergenceError("gain became non-finite", self.step_index_)
        return K

    @property
    def P_(self) -> np.ndarray:
        """Inverse autocorrelation matrix, reconstructed from its factor."""
        self._check_fitted()
        return self.L_ @ self.L_.T
