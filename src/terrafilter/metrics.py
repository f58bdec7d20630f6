"""Evaluation metrics and the per-step timing harness.

Four indices summarize each (algorithm, scenario, seed) cell: mean squared
error and maximum error against the reference trajectory, the variance
ratio (post-filter error variance over measurement-noise variance), and
mean single-step wall time.
"""

import csv
import io
import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .base import StreamingFilter, describe, is_finite_number, require_type
from .exceptions import InvalidInputError
from .regression import _as_trace
from .scenario import ScenarioTrace


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

# The metric fields of a report, in csv order: each one's table heading and
# csv format.
METRIC_COLUMNS = {"sr_ms": ("SR (ms)", ".6f"), "mse": ("MSE", ".17g"),
                  "vr": ("VR", ".17g"), "me": ("ME", ".17g")}


def format_metrics(values) -> list:
    """The ``METRIC_COLUMNS`` of the mapping ``values`` as written to a csv."""
    return [format(values[name], fmt) for name, (_, fmt) in METRIC_COLUMNS.items()]


def _check_pair(pred, ref):
    pred, ref = _as_trace(pred, ref, "prediction and reference")
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
    if not (is_finite_number(sigma2) and sigma2 > 0):
        raise InvalidInputError(
            f"sigma2 must be a positive finite number, got {describe(sigma2)}")
    return _error_metric("variance_ratio",
                         lambda err: float(np.var(err)) / float(sigma2), pred, ref)


def max_error(pred, ref) -> float:
    """Worst absolute deviation from the reference trajectory."""
    return _error_metric("max_error", lambda err: np.max(np.abs(err)), pred, ref)


# the SR definition: a discarded warm-up, then TIMED_RUNS timed runs
TIMED_RUNS = 3
TIMED_STEPS = 400  # the most steps one run times


def time_step(filt, trace) -> float:
    """Mean single-step wall time of ``filt`` in milliseconds: each run
    fits a fresh ``filt._copy()`` on the trace's init window and times its
    bare step loop with the monotonic clock; the median of the timed runs
    is returned. ``filt`` itself is left as it was."""
    require_type("filt", filt, StreamingFilter)
    require_type("trace", trace, ScenarioTrace)
    filt._validate_params()
    times, measurements = trace.times, trace.measurement
    n0 = filt.init_window
    if len(times) <= n0:
        raise InvalidInputError("trace too short to time")
    stop = min(len(times), n0 + TIMED_STEPS)
    span = stop - n0

    samples = []
    for rep in range(TIMED_RUNS + 1):
        fresh = filt._copy()
        fresh.fit(times[:n0], measurements[:n0])
        t0 = time.perf_counter()
        for j in range(n0, stop):
            fresh.step(times[j], measurements[j])
        elapsed = time.perf_counter() - t0
        if rep > 0:  # first pass is warm-up
            samples.append(elapsed / span * 1e3)
    return float(np.median(samples))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def reports_to_csv(reports) -> str:
    """One comma-separated row per report, header mandatory."""
    return _csv_text(REPORT_FIELDS, ([r.algorithm, *format_metrics(vars(r)), r.scenario_id, r.seed]
                                     for r in reports))


def median_groups(reports) -> list:
    """Per (scenario, algorithm) of ``reports``, in sorted order:
    ``(scenario_id, algorithm, seed count, {metric: median across seeds})``."""
    groups = {}
    for r in reports:
        groups.setdefault((r.scenario_id, r.algorithm), []).append(r)
    return [(scenario_id, algorithm, len(rs),
             {name: _median([getattr(r, name) for r in rs]) for name in METRIC_COLUMNS})
            for (scenario_id, algorithm), rs in sorted(groups.items())]


def _median(values) -> float:
    """``np.median`` of ``values``. Where the mean of the two middle values
    overflows, finite values get twice the median of their halves."""
    with np.errstate(over="ignore"):
        median = float(np.median(values))
    if math.isinf(median) and np.isfinite(values).all():
        median = 2.0 * float(np.median(np.divide(values, 2.0)))
    return median


def aggregate_csv(reports) -> str:
    """The ``median_groups`` of ``reports`` as a csv, one row per group."""
    return _csv_text(
        ["scenario_id", "algorithm", "seeds", *(f"median_{name}" for name in METRIC_COLUMNS)],
        ([scenario_id, algorithm, seeds, *format_metrics(medians)]
         for scenario_id, algorithm, seeds, medians in median_groups(reports)))


def render_tables(reports) -> str:
    """One fixed-column text table of medians per scenario, each followed
    by a blank line: algorithms as rows, the metric headings as columns,
    every per-column minimum flagged with '*'."""
    tables = []
    for scenario_id, groups in itertools.groupby(median_groups(reports),
                                                 key=lambda group: group[0]):
        groups = list(groups)
        # a NaN (a failed timing run's sr_ms) takes no part in the minimum
        best = {name: min((medians[name] for *_, medians in groups
                           if not math.isnan(medians[name])), default=math.nan)
                for name in METRIC_COLUMNS}
        header = ["Algorithm", *(heading for heading, _ in METRIC_COLUMNS.values())]
        rows = [[algorithm] + [
            f"{medians[name]:.3f}" + ("*" if medians[name] == best[name] else " ")
            for name in METRIC_COLUMNS] for _, algorithm, _, medians in groups]
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        lines = [f"scenario: {scenario_id}"]
        lines += ["  ".join(x.ljust(w) for x, w in zip(row, widths))
                  for row in [header, ["-" * w for w in widths], *rows]]
        tables.append("\n".join(lines) + "\n\n")
    return "".join(tables)


# the values reports_from_csv accepts beyond each column's type: finite
# metrics (a failed timing run leaves sr_ms NaN) and non-negative seeds
_VALID = {**dict.fromkeys(METRIC_COLUMNS, (math.isfinite, "a finite float")),
          "sr_ms": (lambda v: not math.isinf(v), "a finite float or nan"),
          "seed": (lambda v: v >= 0, "a non-negative int")}


def _csv_rows(reader):
    """The rows of the csv ``reader``; one it cannot read (say, a field over
    the csv module's size limit) is an InvalidInputError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InvalidInputError(f"reports line {reader.line_num}: {exc}") from None


def reports_from_csv(text: str):
    """Parse a reports file back into MetricsReport records, each column
    cast to its field's type. A malformed row, a non-finite metric (but a
    NaN ``sr_ms``) or a negative seed is an InvalidInputError naming its
    line and, for a bad value, its column."""
    reader = csv.reader(io.StringIO(text))
    rows = _csv_rows(reader)
    header = next(rows, None)
    if header != REPORT_FIELDS:
        raise InvalidInputError(f"unexpected reports header: {header}")
    casts = [f.type for f in fields(MetricsReport)]
    reports = []
    for row in rows:
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
