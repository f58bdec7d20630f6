"""Evaluation metrics and the per-step timing harness.

Four indices summarize each (algorithm, scenario, seed) cell: mean squared
error and maximum error against the reference trajectory, the variance
ratio (post-filter error variance over measurement-noise variance), and
mean single-step wall time.
"""

import csv
import io
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import InvalidInputError, UndefinedRatioError


@dataclass
class MetricsReport:
    """One reports.csv row; the fields, in order, are its columns."""

    algorithm: str
    sr_ms: float
    mse: float
    vr: float
    me: float
    scenario_id: str
    seed: int


REPORT_FIELDS = [f.name for f in fields(MetricsReport)]


def format_metrics(report: MetricsReport) -> list:
    """``sr_ms, mse, vr, me`` of ``report`` as written to a csv."""
    return [f"{report.sr_ms:.6f}", f"{report.mse:.17g}", f"{report.vr:.17g}",
            f"{report.me:.17g}"]


def _check_pair(pred, ref):
    pred = np.asarray(pred, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if pred.ndim != 1 or pred.shape != ref.shape:
        raise InvalidInputError("prediction and reference lengths must match")
    if len(pred) == 0:
        raise InvalidInputError("metrics need at least one sample")
    if not (np.isfinite(pred).all() and np.isfinite(ref).all()):
        raise InvalidInputError("prediction and reference must be finite")
    return pred, ref


def _error_metric(name, fn, pred, ref) -> float:
    """``fn`` of the prediction error ``pred - ref`` as a float. Finite
    inputs whose metric overflows are an InvalidInputError naming it."""
    pred, ref = _check_pair(pred, ref)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        value = float(fn(pred - ref))
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} overflows to {value} on finite inputs")
    return value


def mse(pred, ref) -> float:
    """Mean squared deviation from the reference trajectory."""
    return _error_metric("mse", lambda err: np.mean(err * err), pred, ref)


def variance_ratio(pred, ref, sigma2: float) -> float:
    """Population variance of the prediction error about its own mean,
    divided by the measurement-noise variance. Near zero means strong
    noise suppression; above one means amplification."""
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise InvalidInputError(f"sigma2 must be a positive finite number, got {sigma2!r}")
    return _error_metric("variance_ratio",
                         lambda err: float(np.var(err)) / float(sigma2), pred, ref)


def max_error(pred, ref) -> float:
    """Worst absolute deviation from the reference trajectory."""
    return _error_metric("max_error", lambda err: np.max(np.abs(err)), pred, ref)


def improvement(baseline: MetricsReport, candidate: MetricsReport,
                metric: str) -> float:
    """Percent improvement of candidate over baseline on one metric:
    100 * (baseline - candidate) / baseline."""
    if metric not in ("sr_ms", "mse", "vr", "me"):
        raise InvalidInputError(f"unknown metric {metric!r}")
    if (baseline.scenario_id, baseline.seed) != (candidate.scenario_id, candidate.seed):
        raise InvalidInputError("reports must share scenario and seed")
    base = getattr(baseline, metric)
    cand = getattr(candidate, metric)
    if not (math.isfinite(base) and math.isfinite(cand)):
        raise InvalidInputError(f"{metric} must be finite, got {base!r} and {cand!r}")
    if base == 0:
        raise UndefinedRatioError(f"baseline {metric} is zero")
    return 100.0 * (base - cand) / base


def time_step(filter_factory, trace, timed_steps: int | None = None,
              runs: int = 3) -> float:
    """Mean single-step wall time in milliseconds.

    Builds a fresh filter per run via ``filter_factory()``, fits it on the
    trace's leading init window, and times the bare step loop with the
    monotonic clock. One warm-up run is discarded; the median of the timed
    runs is returned. ``timed_steps`` caps the number of steps per run.
    """
    times = trace.times
    measurements = trace.measurement
    probe = filter_factory()
    n0 = probe.init_window
    if len(times) <= n0:
        raise InvalidInputError("trace too short to time")
    stop = len(times) if timed_steps is None else min(len(times), n0 + timed_steps)
    span = stop - n0

    samples = []
    for rep in range(runs + 1):
        filt = filter_factory()
        filt.fit(times[:n0], measurements[:n0])
        t0 = time.perf_counter()
        for j in range(n0, stop):
            filt.step(times[j], measurements[j])
        elapsed = time.perf_counter() - t0
        if rep > 0:  # first pass is warm-up
            samples.append(elapsed / span * 1e3)
    return float(np.median(samples))


def reports_to_csv(reports) -> str:
    """One comma-separated row per report, header mandatory."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for r in reports:
        writer.writerow([r.algorithm, *format_metrics(r), r.scenario_id, r.seed])
    return buf.getvalue()


# the values reports_from_csv accepts beyond each column's type: finite
# metrics (a failed timing run leaves sr_ms NaN) and non-negative seeds
_FINITE = (math.isfinite, "a finite float")
_VALID = {"sr_ms": (lambda v: not math.isinf(v), "a finite float or nan"),
          "mse": _FINITE, "vr": _FINITE, "me": _FINITE,
          "seed": (lambda v: v >= 0, "a non-negative int")}


def reports_from_csv(text: str):
    """Parse a reports file back into MetricsReport records, each column
    cast to its field's type. A malformed row, a non-finite metric (but a
    NaN ``sr_ms``) or a negative seed is an InvalidInputError naming its
    line and, for a bad value, its column."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != REPORT_FIELDS:
        raise InvalidInputError(f"unexpected reports header: {header}")
    casts = [f.type for f in fields(MetricsReport)]
    reports = []
    for row in reader:
        if not row:
            continue
        where = f"reports line {reader.line_num}"
        if len(row) != len(REPORT_FIELDS):
            raise InvalidInputError(
                f"{where}: expected {len(REPORT_FIELDS)} columns, got {len(row)}")
        values = []
        for name, cast, value in zip(REPORT_FIELDS, casts, row):
            try:
                values.append(cast(value))
            except ValueError:
                raise InvalidInputError(
                    f"{where}, column {name}: expected {cast.__name__}, got {value!r}"
                ) from None
            valid, expected = _VALID.get(name, (None, None))
            if valid and not valid(values[-1]):
                raise InvalidInputError(
                    f"{where}, column {name}: expected {expected}, got {value!r}")
        reports.append(MetricsReport(*values))
    return reports
