"""Estimator base class and the shared covariance-factor recursion.

Filters follow the scikit-learn estimator convention: each filter is a
dataclass whose fields are its hyperparameters, ``get_params``/``set_params``
round-trip them, fitted state lives in trailing-underscore attributes, and
``fit`` returns ``self``.
"""

import dataclasses
import math
import numbers
import sys
import types
import typing

import numpy as np

from .exceptions import InvalidInputError, NotFittedError, NumericalDivergenceError
from .regression import MAX_DEGREE, _as_trace, batch_least_squares, poly_basis

# The smallest forgetting factor a filter takes: every gain denominator
# lambda + phi^T P phi is then at least this too.
GAIN_DENOMINATOR_FLOOR = 1e-12


class Interval:
    """A parameter's range, declared in its annotation, as ``Annotated[float,
    Interval(0, 2, ends="()")]``; ``ends`` marks each end closed or open.
    After scikit-learn's ``Interval`` (``sklearn/utils/_param_validation.py``)."""

    verb = "lie in"

    def __init__(self, low, high=math.inf, ends="[]"):
        self.low, self.high, self.ends = low, high, ends

    def __contains__(self, value):
        return ((value >= self.low if self.ends[0] == "[" else value > self.low)
                and (value <= self.high if self.ends[1] == "]" else value < self.high))

    def __str__(self):  # an unbounded end is open
        close = self.ends[1] if self.high < math.inf else ")"
        return f"{self.ends[0]}{self.low}, {self.high}{close}"


class OneOf(tuple):
    """The values a parameter may take, declared like ``Interval``."""

    verb = "be one of"

    def __str__(self):
        return ", ".join(map(repr, self))


Positive = typing.Annotated[float, Interval(0, ends="()")]
NonNegative = typing.Annotated[float, Interval(0)]
Seed = typing.Annotated[int, Interval(0)]
Degree = typing.Annotated[int, Interval(0, MAX_DEGREE)]
CovarianceInit = typing.Annotated[str, OneOf(("residual", "gram"))]


def is_finite_number(value) -> bool:
    """True for a real number, other than a bool, whose float is finite."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def describe(value) -> str:
    """``repr(value)`` for an error message. An int too long for Python to
    print (``sys.get_int_max_str_digits``), alone or in a tuple or list, is
    described by its type and digit count instead."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (tuple, list)):
            inner = ", ".join(map(describe, value))
            return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
        if not isinstance(value, numbers.Integral):
            raise
        magnitude = abs(int(value))
        # a start below the digit count: 10**digits <= 2**(bits - 1) <= magnitude
        digits = int((magnitude.bit_length() - 1) * math.log10(2))
        while 10 ** digits <= magnitude:
            digits += 1
        return f"<{type(value).__name__} of {digits} digits>"


def require_type(name, value, cls):
    """Raise an InvalidInputError naming ``name`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def check_numbers(obj):
    """Check the fields of the dataclass ``obj`` by their annotations: an
    ``int`` holds an integer other than a bool, a ``float`` (``float |
    None``: None, or) a number that ``is_finite_number`` takes, a ``tuple``
    of floats such entries, as many as it declares, a ``tuple[T, ...]`` a
    tuple of entries ``field[i]`` checked as ``T``s, a ``bool``, ``str`` or
    other class an instance of it, and ``Annotated[T, *rules]`` a ``T`` in
    each rule.
    Raises an InvalidInputError naming the first field that does not, as in
    ``mu must lie in (0, 2), got 5``, or whose annotation is a string (a
    postponed annotation), which it cannot check."""
    checks = [(f.name, f.type, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    for name, tp, value in checks:  # a tuple[T, ...]'s entries join the end of ``checks``
        if typing.get_origin(tp) in (types.UnionType, typing.Union):  # ``T | None``
            tp = None if value is None else typing.get_args(tp)[0]
        tp, *rules = typing.get_args(tp) if typing.get_origin(tp) is typing.Annotated else (tp,)
        if isinstance(tp, str):
            raise InvalidInputError(f"{name} has the string annotation {tp!r}, not a type")
        args = typing.get_args(tp)
        if tp is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise InvalidInputError(f"{name} must be an integer, got {describe(value)}")
        if tp is float and not is_finite_number(value):
            raise InvalidInputError(f"{name} must be finite, got {describe(value)}")
        if typing.get_origin(tp) is tuple and args[-1] is Ellipsis:
            require_type(name, value, tuple)
            checks += [(f"{name}[{i}]", args[0], item) for i, item in enumerate(value)]
        elif typing.get_origin(tp) is tuple and args[0] is float:
            if not (isinstance(value, tuple) and len(value) == len(args)):
                raise InvalidInputError(
                    f"{name} must be {len(args)} numbers, got {describe(value)}")
            if not all(map(is_finite_number, value)):
                raise InvalidInputError(f"{name} must be finite, got {describe(value)}")
        if isinstance(tp, type) and tp not in (int, float):
            require_type(name, value, tp)
        for rule in rules:
            if value not in rule:
                raise InvalidInputError(f"{name} must {rule.verb} {rule}, got {describe(value)}")


def all_finite(x: np.ndarray) -> bool:
    """True when every entry of the vector ``x`` is finite, checked exactly,
    with no arithmetic that could overflow."""
    return all(map(math.isfinite, x.tolist()))


class StreamingFilter:
    """Common surface for all streaming filters.

    Lifecycle: construct with hyperparameters, ``fit`` on an initialization
    window of (time, measurement) samples, then ``step`` one sample at a
    time. ``run`` drives fit-then-step over a full trace and returns one
    prediction per post-window sample. Each is made before its measurement
    is absorbed, but the particle filter's is weighted by it (a posterior mean).

    Each filter is a ``@dataclass(eq=False)`` whose fields, in constructor
    order, are its hyperparameters: its ``repr`` shows them, and it compares
    and hashes by identity. A fitted filter is a single-threaded mutable
    value; independent instances may run concurrently.
    """

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def set_params(self, **params):
        unknown = sorted(params.keys() - self.get_params().keys())
        if unknown:
            raise InvalidInputError(f"invalid parameter {unknown[0]!r} for {type(self).__name__}")
        for key, value in params.items():
            setattr(self, key, value)
        return self

    # -- subclass contract -------------------------------------------------

    def step(self, t_raw: float, y: float) -> float:  # pragma: no cover
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _check_fitted(self):
        if not getattr(self, "is_fitted_", False):
            raise NotFittedError(f"{type(self).__name__} has not been fitted")

    def _validate_params(self):
        """Check the hyperparameters: each field by its annotation
        (``check_numbers``), then the rules across fields, which subclasses
        extend. Every ``fit`` and ``run`` calls it, no step does."""
        check_numbers(self)
        if self.init_window < self.degree + 2:
            raise InvalidInputError("init_window must be at least degree + 2")

    def fit(self, times, measurements):
        """Check the hyperparameters and a window of exactly ``init_window``
        samples, fit it by batch least squares in scaled time and set the
        fitted state through ``_init_state``; returns ``self``."""
        self._validate_params()
        times, measurements = _as_trace(times, measurements)
        if len(times) != self.init_window:
            raise InvalidInputError(f"fit expects exactly init_window={self.init_window} "
                                    f"samples, got {len(times)}")
        if not (np.isfinite(times).all() and np.isfinite(measurements).all()):
            raise InvalidInputError("initialization window must be finite")
        if not np.all(np.diff(times) > 0):
            raise InvalidInputError("times must be strictly increasing")
        with np.errstate(over="ignore"):  # batch_least_squares rejects an overflow
            taus = times / self.scale_divisor
        self._init_state(batch_least_squares(taus, measurements, self.degree), taus)
        self.last_time_ = float(times[-1])
        self.step_index_ = len(times)
        self.is_fitted_ = True
        return self

    def _init_state(self, fit, taus):
        """Set the fitted state from the window's ``BatchFit`` over the
        scaled times ``taus``; each filter chains its own state onto this."""
        self.theta_ = fit.theta.copy()

    def _advance_clock(self, t_raw: float, y: float):
        try:
            if isinstance(t_raw, (str, bytes)) or isinstance(y, (str, bytes)):
                raise TypeError  # float() would parse "1" and b"1"
            t_raw = float(t_raw)
            y = float(y)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInputError("time and measurement must be finite numbers, "
                                    f"got {describe(t_raw)} and {describe(y)}") from None
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
        try:
            prediction = float(phi.dot(self.theta_))
        except RuntimeWarning:  # an error filter's overflow: the guard words it as run does
            with np.errstate(all="ignore"):
                prediction = float(phi.dot(self.theta_))
        if not math.isfinite(prediction):
            raise NumericalDivergenceError(
                "prediction became non-finite", self.step_index_
            )
        return phi, y, prediction

    def _begin(self, times, measurements):
        """Check the hyperparameters and the trace, and fit on its first
        ``init_window`` samples; returns the trace as float arrays."""
        times, measurements = _as_trace(times, measurements)
        self._validate_params()
        n0 = self.init_window
        if len(times) < n0:
            raise InvalidInputError(
                f"trace shorter than the initialization window ({len(times)} < {n0})"
            )
        self.fit(times[:n0], measurements[:n0])
        return times, measurements

    def _step_columns(self, t_raw: float, y: float) -> tuple:
        """One ``step``'s ``_LOCKSTEP_COLUMNS`` values, in order."""
        return (self.step(t_raw, y),)

    def run(self, times, measurements) -> np.ndarray:
        """Fit on the first ``init_window`` samples, then step the rest.

        Returns one prediction per post-window sample.
        """
        return self.run_detailed(times, measurements)["prediction"]

    # numpy's floating-point warnings are off for a whole run (``step``
    # alone keeps the caller's): an overflow ends it at a typed guard, and
    # a lockstep row's overflow cannot stop the other rows
    @np.errstate(all="ignore")
    def run_detailed(self, times, measurements) -> dict:
        """``run`` with every per-step column: a dict of the
        ``_LOCKSTEP_COLUMNS`` arrays, one ``_step_columns`` row per
        post-window sample. A trace exactly init_window long yields empty
        columns."""
        times, measurements = self._begin(times, measurements)
        rows = [self._step_columns(times[j], measurements[j])
                for j in range(self.init_window, len(times))]
        return {name: np.array([row[i] for row in rows], dtype=dtype)
                for i, (name, dtype) in enumerate(self._LOCKSTEP_COLUMNS)}

    # -- lockstep: one filter per trace, all advanced together -------------

    # The fitted attributes a lockstep run stacks, one row per trace, and
    # the (name, dtype) of each per-step column that it and ``run_detailed``
    # return.
    _LOCKSTEP_STATE = ("theta_",)
    _LOCKSTEP_COLUMNS = (("prediction", float),)
    # ``_lockstep_step(s, phi, residual)`` ends one ``step`` of every row of
    # the state ``s`` from the regressors and residuals ``_lockstep`` formed:
    # it writes every row's new state into ``s`` and returns the columns
    # after ``prediction``; a guard only marks its rows in ``s.failed``. A
    # class without one runs each trace through ``run_detailed``.
    _lockstep_step = None

    def _copy(self):
        """A new filter of the same parameters, with no fitted state."""
        return dataclasses.replace(self)

    def run_lockstep_detailed(self, times_list, measurements_list) -> list:
        """Run a copy of this filter over each trace, as ``run_detailed`` would.

        Returns per trace its ``run_detailed`` dict, or the exception ``run``
        raises on it; the filter itself is left as it was. The recursive
        filters advance the copies of regular traces together, one sample at
        a time, with stacked numpy calls whose columns are bit-identical to
        ``run_detailed``'s. This path only detects: a trace that is not
        regular, or whose row a guard marks, goes through ``run_detailed``,
        which alone decides and words a failure. So do a single trace and
        every trace of a filter without a lockstep step (the particle filter).
        """
        try:
            mismatch = len(times_list) != len(measurements_list)
        except TypeError:
            raise InvalidInputError(
                "times_list and measurements_list must be sequences, got "
                f"{type(times_list).__name__} and {type(measurements_list).__name__}") from None
        if mismatch:
            raise InvalidInputError("times_list and measurements_list must match in length")
        traces = list(zip(times_list, measurements_list))
        outcomes = ([None] * len(traces)
                    if self._lockstep_step is None or len(traces) < 2
                    else self._lockstep(traces))
        return [_outcome(self._copy().run_detailed, *trace) if out is None else out
                for trace, out in zip(traces, outcomes)]

    @np.errstate(all="ignore")  # as in run_detailed
    def _lockstep(self, traces) -> list:
        """Advance one fitted copy per trace of ``traces`` together; returns
        per trace its columns, the exception its fit raised, or None where
        ``run`` must decide. Every trace as long as the first fitted one is
        stacked; the irregular ones are marked from the start. A trace is
        regular when every post-window sample passes the ``step`` checks its
        ``fit`` has not made: a finite measurement, a time above the one
        before and a finite scaled time. These checks and the mark of a
        non-finite residual stand in for ``_predict``'s. A marked row stays
        in the batch."""
        n0 = self.init_window
        outcomes = [None] * len(traces)
        rows = []
        for k, trace in enumerate(traces):
            filt = self._copy()
            try:
                rows.append((k, filt, *filt._begin(*trace)))
            except Exception as exc:  # raised by run's own first call
                outcomes[k] = exc
        if not rows:
            return outcomes
        length = len(rows[0][2])
        rows = [row for row in rows if len(row[2]) == length]
        times = np.array([row[2][n0 - 1:] for row in rows])
        measurements = np.array([row[3][n0:] for row in rows])
        tau = times[:, 1:] / self.scale_divisor
        s = _Rows()
        s.failed = ~(np.isfinite(measurements).all(axis=1)
                     & (times[:, 1:] > times[:, :-1]).all(axis=1)
                     & np.isfinite(tau).all(axis=1))
        self._stack_state(s, [row[1] for row in rows])
        # every step's regressor at once, as batch_least_squares builds a
        # window's (vander's running product is poly_basis's multiplications)
        regressors = np.vander(tau.ravel(), self.degree + 1, increasing=True).reshape(
            *tau.shape, self.degree + 1)
        width = measurements.shape[1]
        columns = [np.zeros((len(rows), width), dtype=dtype)
                   for _, dtype in self._LOCKSTEP_COLUMNS]
        for j in range(width):
            phi = regressors[:, j]
            prediction = np.matmul(phi[:, None, :], s.theta_[:, :, None])[:, 0, 0]
            residual = measurements[:, j] - prediction
            s.mark_nonfinite(residual)
            columns[0][:, j] = prediction
            for column, values in zip(columns[1:], self._lockstep_step(s, phi, residual)):
                column[:, j] = values
        names = [name for name, _ in self._LOCKSTEP_COLUMNS]
        for (k, *_), failed, *values in zip(rows, s.failed, *columns):
            if not failed:
                outcomes[k] = dict(zip(names, values))
        return outcomes

    def _stack_state(self, s, filters):
        for name in self._LOCKSTEP_STATE:
            setattr(s, name, np.array([getattr(f, name) for f in filters]))


def _f_ordered(stack):
    """A copy of a (rows, n, n) stack whose every matrix is F-ordered."""
    return np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)


def _outcome(fn, *args):
    """``fn(*args)``, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the caller records it in place of a result
        return exc


class _Rows:
    """The stacked state of a lockstep run: every array attribute has one
    row per stacked trace. The boolean array ``failed`` marks the rows that
    go through ``run_detailed``: the irregular ones, and those a guard
    marks."""

    def mark_nonfinite(self, x):
        """Mark each row whose entry (or row) of ``x`` is not finite, after
        the whole-array check that almost always passes."""
        finite = np.isfinite(x)
        if not finite.all():
            self.failed |= ~finite.reshape(len(x), -1).all(axis=1)


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

    def _init_state(self, fit, taus):
        # phi^T P phi >= 1 / (window / variance + steps), as phi[0] is 1: a normal
        # variance keeps it above 0 (checked first, so a refused fit sets nothing)
        if self.covariance_init == "residual" and fit.residual_variance < sys.float_info.min:
            raise InvalidInputError("covariance_init='residual' needs a residual variance "
                                    f">= {sys.float_info.min}, got {fit.residual_variance}")
        super()._init_state(fit, taus)
        if self.covariance_init == "residual":
            self.L_ = math.sqrt(fit.residual_variance) * fit.gram_inverse_root
        else:
            self.L_ = fit.gram_inverse_root.copy()

    def _gain_update(self, phi: np.ndarray, lam: float) -> np.ndarray:
        """Advance the covariance factor under forgetting factor ``lam`` and
        return the gain vector K."""
        L = self.L_
        v = phi.dot(L)
        vv = float(v.dot(v))
        denom = lam + vv
        Lv = L.dot(v)
        K = Lv / denom
        # (L - beta Lv v^T) / sqrt(lam) in the fresh C-ordered buffer of
        # Lv v^T: BLAS rounds products with C- and F-ordered L differently
        L_new = np.multiply(Lv[:, None], v)
        L_new *= (1.0 - math.sqrt(lam / denom)) / vv
        np.subtract(L, L_new, out=L_new)
        L_new /= math.sqrt(lam)
        self.L_ = L_new
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
        try:
            self.theta_ = self.theta_ + gain * residual
        except RuntimeWarning:  # an error filter's overflow: the guard words it as run does
            with np.errstate(all="ignore"):
                self.theta_ = self.theta_ + gain * residual
        if not all_finite(self.theta_):
            culprit = "parameter vector" if all_finite(gain) else "gain"
            raise NumericalDivergenceError(
                f"{culprit} became non-finite", self.step_index_
            )
        self.step_index_ += 1
        return gain

    # -- lockstep ----------------------------------------------------------

    _LOCKSTEP_STATE = StreamingFilter._LOCKSTEP_STATE + ("L_",)

    def _stack_state(self, s, filters):
        super()._stack_state(s, filters)
        # BLAS rounds a product with a C- or an F-ordered matrix differently;
        # a "residual" init factor stays F-ordered until its first update
        s.f_order = np.array([f.L_.flags.f_contiguous and not f.L_.flags.c_contiguous
                              for f in filters])

    def _absorb_rows(self, s, phi, lam, residual):
        """``_absorb`` for every row of ``s``, each under its own forgetting
        factor in the array ``lam``: stores the new ``theta_``, ``L_`` and
        ``f_order`` and returns the gains. A guard marks its rows."""
        L, f_order = s.L_, s.f_order
        v = np.matmul(phi[:, None, :], L)[:, 0]
        f_rows = np.flatnonzero(f_order)
        if len(f_rows):
            L_f = _f_ordered(L[f_rows])
            v[f_rows] = np.matmul(phi[f_rows, None, :], L_f)[:, 0]
        vv = np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]
        denom = lam + vv
        Lv = np.matmul(L, v[:, :, None])[:, :, 0]
        if len(f_rows):
            Lv[f_rows] = np.matmul(L_f, v[f_rows, :, None])[:, :, 0]
        gain = Lv / denom[:, None]
        # _gain_update's operations, in its order, on every row at once
        L_new = Lv[:, :, None] * v[:, None, :]
        L_new *= ((1.0 - np.sqrt(lam / denom)) / vv)[:, None, None]
        np.subtract(L, L_new, out=L_new)
        L_new /= np.sqrt(lam)[:, None, None]
        s.f_order = np.zeros(len(vv), dtype=bool)
        s.theta_ = s.theta_ + gain * residual[:, None]
        s.L_ = L_new
        s.mark_nonfinite(s.theta_)
        return gain
