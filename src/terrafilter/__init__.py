"""Adaptive filters and a benchmark harness for terrain-following
waypoint estimation."""

__version__ = "0.1.0"

from .baselines import (BootstrapParticleFilter, GvffRls, NormalizedLms,
                        StaticRls)
from .exceptions import (ConfigError, InsufficientDataError, InvalidInputError,
                         NotFittedError, NumericalDivergenceError,
                         SingularFitError, TerraFilterError,
                         UndefinedRatioError)
from .geometry import (WaypointGeometry, next_waypoint, vertical_recursion,
                       waypoint_std)
from .metrics import (MetricsReport, improvement, max_error, mse, time_step,
                      variance_ratio)
from .regression import BatchFit, batch_least_squares, poly_basis
from .rvm_rls import RvmRls, StepOutput, variance_cost
from .scenario import (ScenarioConfig, ScenarioTrace, TerrainParams,
                       synthesize, terrain_height, write_trace_csv)

__all__ = [
    "BatchFit", "BootstrapParticleFilter", "ConfigError", "GvffRls",
    "InsufficientDataError", "InvalidInputError", "MetricsReport",
    "NormalizedLms", "NotFittedError", "NumericalDivergenceError", "RvmRls",
    "ScenarioConfig", "ScenarioTrace", "SingularFitError", "StaticRls",
    "StepOutput", "TerraFilterError", "TerrainParams",
    "UndefinedRatioError", "WaypointGeometry", "batch_least_squares",
    "improvement", "max_error", "mse", "next_waypoint", "poly_basis",
    "synthesize", "terrain_height", "time_step", "variance_cost",
    "variance_ratio", "vertical_recursion", "waypoint_std", "write_trace_csv",
]
