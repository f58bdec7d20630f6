"""Estimator base class and the shared covariance-factor recursion.

Filters follow the scikit-learn estimator convention: hyperparameters are
plain constructor arguments stored verbatim, ``get_params``/``set_params``
round-trip them, fitted state lives in trailing-underscore attributes, and
``fit`` returns ``self``.
"""

import inspect
import math
import numbers
import typing

import numpy as np

from .exceptions import InvalidInputError, NotFittedError, NumericalDivergenceError
from .regression import batch_least_squares, poly_basis

# Gain denominators below this are treated as a numerical collapse rather
# than silently dividing.
GAIN_DENOMINATOR_FLOOR = 1e-12


def all_finite(x: np.ndarray) -> bool:
    """True when every entry of the vector ``x`` is finite. x . x decides in
    one BLAS call unless a finite entry beyond ~1e154 overflows the square;
    only then are the entries checked one by one."""
    return math.isfinite(x.dot(x)) or bool(np.isfinite(x).all())


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

    def _validate_params(self):
        """Check the hyperparameters: each one annotated ``int`` must hold
        an integer, and each subclass chains its own checks onto this. Every
        ``fit`` and ``run`` calls it, no step does."""
        for name, tp in typing.get_type_hints(type(self).__init__).items():
            value = getattr(self, name)
            if tp is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        if self.degree < 0 or self.init_window < self.degree + 2:
            raise InvalidInputError("init_window must be at least degree + 2")
        if not (math.isfinite(self.scale_divisor) and self.scale_divisor > 0):
            raise InvalidInputError(
                f"scale_divisor must be a positive finite number, got {self.scale_divisor!r}"
            )

    def _validate_window(self, times, measurements):
        """Check the hyperparameters and the ``fit`` inputs; every filter's
        fit passes through here, no step does."""
        self._validate_params()
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

    def _predict(self, t_raw: float, y: float):
        """Advance the clock to one new sample and predict it from the
        current parameters: returns ``(phi, y, prediction)``."""
        self._check_fitted()
        t_raw, y = self._advance_clock(t_raw, y)
        phi = poly_basis(t_raw / self.scale_divisor, self.degree)
        prediction = float(phi.dot(self.theta_))
        if not math.isfinite(prediction):
            raise NumericalDivergenceError(
                "prediction became non-finite", self.step_index_
            )
        return phi, y, prediction

    def _drive(self, times, measurements, step) -> list:
        """Fit on the first ``init_window`` samples, then return
        ``step(t, y)`` for each remaining sample, in order."""
        times = np.asarray(times, dtype=float)
        measurements = np.asarray(measurements, dtype=float)
        self._validate_params()
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

    def _validate_params(self):
        super()._validate_params()
        if self.covariance_init not in ("residual", "gram"):
            raise InvalidInputError("covariance_init must be 'residual' or 'gram', "
                                    f"got {self.covariance_init!r}")

    def _init_from_window(self, times, measurements):
        times, measurements = self._validate_window(times, measurements)
        taus = times / self.scale_divisor
        fit = batch_least_squares(taus, measurements, self.degree)
        if self.covariance_init == "residual":
            self.L_ = math.sqrt(fit.residual_variance) * fit.gram_inverse_root
        else:
            self.L_ = fit.gram_inverse_root.copy()
        self.theta_ = fit.theta.copy()
        self.last_time_ = float(times[-1])
        self.step_index_ = len(times)
        self.is_fitted_ = True
        return fit

    def _gain_update(self, phi: np.ndarray, lam: float) -> np.ndarray:
        """Advance the covariance factor under forgetting factor ``lam`` and
        return the gain vector K."""
        L = self.L_
        v = phi.dot(L)
        vv = float(v.dot(v))
        denom = lam + vv
        if denom < GAIN_DENOMINATOR_FLOOR:
            raise NumericalDivergenceError(
                "gain denominator collapsed", self.step_index_
            )
        Lv = L.dot(v)
        K = Lv / denom
        if vv > 0.0:
            # (L - beta Lv v^T) / sqrt(lam) in the fresh C-ordered buffer of
            # Lv v^T: BLAS rounds products with C- and F-ordered L differently
            L_new = np.multiply(Lv[:, None], v)
            L_new *= (1.0 - math.sqrt(lam / denom)) / vv
            np.subtract(L, L_new, out=L_new)
            L_new /= math.sqrt(lam)
            self.L_ = L_new
        else:
            self.L_ = L / math.sqrt(lam)
        return K

    def _clip_lambda(self, lam: float) -> float:
        """Clip into [lambda_min, lambda_max] (adaptive-lambda filters)."""
        return min(max(lam, self.lambda_min), self.lambda_max)

    def _absorb(self, phi: np.ndarray, lam: float, residual: float) -> np.ndarray:
        """Update the factor and the parameters with one sample's
        ``residual`` under forgetting factor ``lam``, close the step and
        return the gain. The parameter guard covers the gain too: a
        non-finite gain always leaves a non-finite parameter vector."""
        gain = self._gain_update(phi, lam)
        self.theta_ = self.theta_ + gain * residual
        if not all_finite(self.theta_):
            culprit = "parameter vector" if all_finite(gain) else "gain"
            raise NumericalDivergenceError(
                f"{culprit} became non-finite", self.step_index_
            )
        self.step_index_ += 1
        return gain

    @property
    def P_(self) -> np.ndarray:
        """Inverse autocorrelation matrix, reconstructed from its factor."""
        self._check_fitted()
        return self.L_ @ self.L_.T
