"""Terrain-following scenario synthesis.

Builds the benchmark measurement stream: a Gaussian-enveloped sinusoidal
terrain, a constant-clearance reference trajectory above it, and noisy
measurements corrupted by a configurable fraction of impulsive outliers.
"""

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Annotated

import numpy as np

from .base import Interval, NonNegative, Positive, Seed, check_numbers, require_type
from .exceptions import InvalidInputError
from .regression import _float_array

TRACE_HEADER = ["t", "H", "p", "z", "outlier"]
# The most samples a scenario may ask for: 500 times the benchmark's 2,000.
# Synthesis, and each filter's regressors in a lockstep run, allocate in
# proportion to it.
MAX_SAMPLE_COUNT = 1_000_000


@dataclass(frozen=True)
class TerrainParams:
    """Gaussian-enveloped sinusoid: H(t) = A(t) sin(omega t + phase) with
    A(t) = amplitude * exp(-(t - center)^2 / (2 envelope_sigma^2))."""

    amplitude: float = 10.0
    center: float = 1000.0
    envelope_sigma: Positive = 400.0
    omega: float = 0.025
    phase: float = 0.0

    __post_init__ = check_numbers


def terrain_height(t, params: TerrainParams = TerrainParams()):
    """Evaluate the terrain profile at time(s) t, which must be finite."""
    require_type("params", params, TerrainParams)
    try:
        t = _float_array(t)
        finite = np.isfinite(t).all()
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise InvalidInputError("t must be finite numbers")
    envelope = params.amplitude * np.exp(
        -((t - params.center) ** 2) / (2.0 * params.envelope_sigma**2)
    )
    out = envelope * np.sin(params.omega * t + params.phase)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic benchmark scenario.

    ``clean_prefix`` keeps outliers out of the leading samples so filter
    initialization windows see clean statistics. ``outlier_band`` bounds
    injected amplitudes in multiples of the noise standard deviation; draws
    stay above the 3-sigma floor so every injected value is a genuine
    outlier rather than ordinary noise.
    """

    name: str = "terrain"
    sample_count: Annotated[int, Interval(1, MAX_SAMPLE_COUNT)] = 2000
    clearance: float = 20.0
    noise_variance: NonNegative = 0.09
    outlier_fraction: Annotated[float, Interval(0, 1)] = 0.10
    outlier_band: tuple[float, float] = (-30.0, 30.0)
    clean_prefix: Annotated[int, Interval(0)] = 100
    seed: Seed = 0
    terrain: TerrainParams = field(default_factory=TerrainParams)

    def __post_init__(self):
        check_numbers(self)
        lo, hi = self.outlier_band
        if self.outlier_fraction > 0 and max(abs(lo), abs(hi)) <= 3.0:
            raise InvalidInputError(
                "outlier_band must extend beyond 3 sigma to hold genuine outliers"
            )
        if self.clean_prefix >= self.sample_count:
            raise InvalidInputError("clean_prefix must lie in [0, sample_count)")
        outliers = round(self.outlier_fraction * self.sample_count)
        if outliers > self.sample_count - self.clean_prefix:
            raise InvalidInputError(
                "outlier_fraction asks for more outliers than samples after clean_prefix")
        if outliers > 0 and self.noise_variance == 0:
            raise InvalidInputError("noise_variance must be positive when outliers are "
                                    "injected: their amplitudes scale with the noise")
        # synthesize repeats this evaluation, which must stay finite
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                reference = terrain_height(np.arange(self.sample_count, dtype=float),
                                           self.terrain) + self.clearance
        except (FloatingPointError, OverflowError) as exc:
            raise InvalidInputError(
                f"terrain plus clearance overflows over the sample times ({exc})"
            ) from None
        # so must the largest outlier added to it; synthesize checks the
        # measurements themselves, noise included
        peak = math.sqrt(self.noise_variance) * max(abs(lo), abs(hi)) if outliers else 0.0
        if not math.isfinite(float(np.abs(reference).max()) + peak):
            raise InvalidInputError(
                "the largest outlier, sqrt(noise_variance) * max|outlier_band|, overflows "
                "added to the terrain plus clearance")

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True, eq=False)
class ScenarioTrace:
    """Synthesized arrays plus the configuration that produced them, checked
    when built: each array is 1-D, of a boolean, integer or float dtype, and
    as long as ``times``. A trace compares and hashes by identity."""

    times: np.ndarray
    terrain: np.ndarray
    reference: np.ndarray
    measurement: np.ndarray
    outlier_mask: np.ndarray
    injected_outliers: np.ndarray
    config: ScenarioConfig

    def __post_init__(self):
        check_numbers(self)
        for f in fields(self):
            column = getattr(self, f.name)
            if f.type is np.ndarray and not (column.ndim == 1 and column.dtype.kind in "biuf"
                                             and len(column) == len(self.times)):
                raise InvalidInputError(
                    f"{f.name} must be a 1-D numeric array as long as times, "
                    f"got shape {column.shape} and dtype {column.dtype}")

    def __len__(self):
        return len(self.times)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is rejected at the end
def synthesize(config: ScenarioConfig) -> ScenarioTrace:
    """Generate a trace deterministically from (config, config.seed).

    Noise and outliers draw from independent child streams of the seed, so
    two configs differing only in outlier_fraction share the same noise
    realization sample for sample.
    """
    require_type("config", config, ScenarioConfig)
    n = config.sample_count
    noise_rng, outlier_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    times = np.arange(n, dtype=float)
    terrain = terrain_height(times, config.terrain)
    reference = terrain + config.clearance

    sigma = float(np.sqrt(config.noise_variance))
    noise = noise_rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)

    outlier_mask = np.zeros(n, dtype=bool)
    injected = np.zeros(n)
    count = int(round(config.outlier_fraction * n))
    if count > 0:
        positions = outlier_rng.choice(
            np.arange(config.clean_prefix, n), size=count, replace=False
        )
        hi = max(abs(config.outlier_band[0]), abs(config.outlier_band[1]))
        # uniform on (3 sigma, hi sigma]: 1 - u maps [0, 1) to (0, 1]
        u = outlier_rng.random(count)
        magnitudes = sigma * (3.0 + (hi - 3.0) * (1.0 - u))
        one_sided = config.outlier_band[0] >= 0 or config.outlier_band[1] <= 0
        if one_sided:
            signs = np.full(count, 1.0 if config.outlier_band[1] > 0 else -1.0)
        else:
            signs = np.where(outlier_rng.random(count) < 0.5, -1.0, 1.0)
        outlier_mask[positions] = True
        injected[positions] = signs * magnitudes

    measurement = reference + noise + injected
    if not np.isfinite(measurement).all():
        raise InvalidInputError("measurement overflows: reference + noise + outliers is "
                                "not finite for this noise_variance and outlier_band")
    return ScenarioTrace(
        times=times,
        terrain=terrain,
        reference=reference,
        measurement=measurement,
        outlier_mask=outlier_mask,
        injected_outliers=injected,
        config=config,
    )


def format_column(column: np.ndarray) -> list:
    """The text of each value of the 1-D array ``column`` as trace and figure
    files write it: ``%d`` for an integer or boolean array, else ``%.17g``
    (full double precision)."""
    fmt = "%d" if column.dtype.kind in "biu" else "%.17g"
    return [fmt % v for v in column.tolist()]


def write_columns(path, header, columns) -> None:
    """Write equal-length columns of text, each from ``format_column``, as
    comma-separated lines: the header, then one line per row."""
    if len(set(map(len, columns))) > 1:
        raise InvalidInputError(f"columns must be equally long, got lengths "
                                f"{[len(c) for c in columns]}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n")


def write_trace_csv(trace: ScenarioTrace, path) -> None:
    """Write the trace's ``TRACE_HEADER`` columns to ``path``, a str, bytes
    or os.PathLike file path: ``open`` would take an integer as a file
    descriptor and close it."""
    require_type("trace", trace, ScenarioTrace)
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidInputError(f"path must be a file path (a str, bytes or os.PathLike), "
                                f"got {type(path).__name__}")
    write_columns(path, TRACE_HEADER, [format_column(c) for c in (
        trace.times, trace.terrain, trace.reference, trace.measurement, trace.outlier_mask)])
