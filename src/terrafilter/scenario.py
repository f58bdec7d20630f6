"""Terrain-following scenario synthesis.

Builds the benchmark measurement stream: a Gaussian-enveloped sinusoidal
terrain, a constant-clearance reference trajectory above it, and noisy
measurements corrupted by a configurable fraction of impulsive outliers.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import InvalidInputError

TRACE_HEADER = ["t", "H", "p", "z", "outlier"]


@dataclass(frozen=True)
class TerrainParams:
    """Gaussian-enveloped sinusoid: H(t) = A(t) sin(omega t + phase) with
    A(t) = amplitude * exp(-(t - center)^2 / (2 envelope_sigma^2))."""

    amplitude: float = 10.0
    center: float = 1000.0
    envelope_sigma: float = 400.0
    omega: float = 0.025
    phase: float = 0.0

    def __post_init__(self):
        if self.envelope_sigma <= 0:
            raise InvalidInputError("envelope_sigma must be positive")
        if not np.isfinite(self.amplitude):
            raise InvalidInputError("amplitude must be finite")


def terrain_height(t, params: TerrainParams = TerrainParams()):
    """Evaluate the terrain profile at time(s) t."""
    t = np.asarray(t, dtype=float)
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
    sample_count: int = 2000
    clearance: float = 20.0
    noise_variance: float = 0.09
    outlier_fraction: float = 0.10
    outlier_band: tuple = (-30.0, 30.0)
    clean_prefix: int = 100
    seed: int = 0
    terrain: TerrainParams = field(default_factory=TerrainParams)

    def __post_init__(self):
        if self.sample_count <= 0:
            raise InvalidInputError("sample_count must be positive")
        if self.noise_variance < 0:
            raise InvalidInputError("noise_variance must be non-negative")
        if not (0.0 <= self.outlier_fraction <= 1.0):
            raise InvalidInputError("outlier_fraction must lie in [0, 1]")
        lo, hi = self.outlier_band
        if self.outlier_fraction > 0 and max(abs(lo), abs(hi)) <= 3.0:
            raise InvalidInputError(
                "outlier_band must extend beyond 3 sigma to hold genuine outliers"
            )
        if not (0 <= self.clean_prefix < self.sample_count):
            raise InvalidInputError("clean_prefix must lie in [0, sample_count)")

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


@dataclass
class ScenarioTrace:
    """Synthesized arrays plus the configuration that produced them."""

    times: np.ndarray
    terrain: np.ndarray
    reference: np.ndarray
    measurement: np.ndarray
    outlier_mask: np.ndarray
    injected_outliers: np.ndarray
    config: ScenarioConfig

    def __len__(self):
        return len(self.times)


def synthesize(config: ScenarioConfig) -> ScenarioTrace:
    """Generate a trace deterministically from (config, config.seed).

    Noise and outliers draw from independent child streams of the seed, so
    two configs differing only in outlier_fraction share the same noise
    realization sample for sample.
    """
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
        if sigma == 0:
            raise InvalidInputError(
                "outlier injection needs a positive noise variance to scale against"
            )
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
    return ScenarioTrace(
        times=times,
        terrain=terrain,
        reference=reference,
        measurement=measurement,
        outlier_mask=outlier_mask,
        injected_outliers=injected,
        config=config,
    )


def write_columns(path, header, columns) -> None:
    """Write equal-length 1-D columns as comma-separated text: the header
    line, then one line per row. Integer and boolean columns print as
    integers, the rest at full double precision (``%.17g``)."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%d" if c.dtype.kind in "biu" else "%.17g"
                   for c in columns) + "\n"
    rows = np.column_stack(columns).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) for row in rows)


def write_trace_csv(trace: ScenarioTrace, path) -> None:
    write_columns(path, TRACE_HEADER, [trace.times, trace.terrain,
                                       trace.reference, trace.measurement,
                                       trace.outlier_mask])
