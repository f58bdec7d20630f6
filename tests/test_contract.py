"""One input contract for the public surface: for each callable in
``terrafilter.__all__`` and each of its parameters, each junk value gives a
result or a TerraFilterError, never another exception and never a hang.
A filter is built with the junk value and then run, since it checks its
parameters at ``fit``; its methods take junk samples too, and a lockstep
run's per-trace outcomes are held to the same contract, as are the fields
of a run config and of its algorithms. The other arguments are valid, and
each case runs under a time limit. The named exemptions run inside every
step and keep raw errors (README, *Command line*), so a new one shows as a
diff here.
"""

import dataclasses
import inspect
import math
import signal

import numpy as np
import pytest

import terrafilter
from terrafilter import (InvalidInputError, NormalizedLms, RvmRls, ScenarioConfig,
                         TerraFilterError, TerrainParams, WaypointGeometry, synthesize,
                         terrain_height, time_step, write_trace_csv)
from terrafilter.base import StreamingFilter
from terrafilter.bench import (FILTER_KINDS, AlgorithmSpec, ExperimentConfig, build_filter,
                               config_hash)

from test_bench import one_cell_config

JUNK = [None, "1", "a", b"1", 10**400, math.nan, math.inf, True, [], [1.0, "a"], {},
        object(), np.zeros((2, 2))]
JUNK_IDS = ["None", "'1'", "'a'", "b'1'", "10**400", "nan", "inf", "True", "[]",
            "[1.0, 'a']", "{}", "object()", "2-D array"]
EXEMPT = {"poly_basis", "variance_cost"}
SECONDS = 10

# one filter window and a few steps, free of outliers
TRACE = synthesize(ScenarioConfig(sample_count=110, clean_prefix=100, outlier_fraction=0.0))
GEOMETRY = WaypointGeometry(pitch=0.1, yaw=0.0, lidar_distance=1.0, clearance=5.0)
PAIR = {"pred": [1.0, 2.0], "ref": [1.5, 2.5]}
# the arguments without a default, and those whose default is too slow
VALID = {
    "BatchFit": {"theta": np.zeros(2), "residual_variance": 1.0,
                 "gram_inverse_root": np.eye(2)},
    "MetricsReport": {"algorithm": "a", "sr_ms": 0.0, "mse": 0.0, "vr": 0.0, "me": 0.0,
                      "scenario_id": "s", "seed": 0},
    "NumericalDivergenceError": {"message": "m", "step_index": 0},
    "ScenarioTrace": vars(TRACE),
    "StepOutput": {"prediction": 0.0, "residual": 0.0, "rejected": False,
                   "lambda_after": 0.9, "sigma2_hat_after": 0.1},
    "WaypointGeometry": {"pitch": 0.1, "yaw": 0.0, "lidar_distance": 1.0, "clearance": 5.0},
    "batch_least_squares": {"taus": np.arange(6.0), "ys": np.ones(6), "degree": 2},
    "max_error": PAIR,
    "mse": PAIR,
    "next_waypoint": {"current": (0.0, 0.0, 0.0), "geom": GEOMETRY},
    "synthesize": {"config": ScenarioConfig(sample_count=20, clean_prefix=10)},
    "terrain_height": {"t": [0.0, 1.0]},
    "time_step": {"filt": NormalizedLms(), "trace": TRACE},
    "variance_ratio": {**PAIR, "sigma2": 0.09},
    "waypoint_std": {"geom": GEOMETRY},
    "write_trace_csv": {"trace": TRACE, "path": "trace.csv"},
}


def _parameters(obj):
    """The parameter names of ``obj``."""
    try:
        return list(inspect.signature(obj).parameters)
    except ValueError:  # an exception class, whose Exception.__init__ takes *args
        return ["*args"]


def _call(name, param, junk):
    obj = getattr(terrafilter, name)
    out = obj(junk) if param == "*args" else obj(**{**VALID.get(name, {}), param: junk})
    if isinstance(out, StreamingFilter):  # a filter checks its parameters at fit
        out = out.run(TRACE.times, TRACE.measurement)
    return out


class Hang(Exception):
    pass


def _alarm(signum, frame):
    raise Hang(f"no result within {SECONDS} s")


def _wrong(call):
    """``call(junk)`` for each junk value, under the time limit: returns a
    line for each that raised anything but a TerraFilterError, or returned
    one of those in its list of per-trace outcomes."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    wrong = []
    try:
        for junk, junk_id in zip(JUNK, JUNK_IDS):
            signal.alarm(SECONDS)
            try:
                out = call(junk)
            except Exception as exc:  # recorded below: the contract allows no other
                out = [exc]
            finally:
                signal.alarm(0)
            wrong += [f"{junk_id}: {type(exc).__name__}: {exc}"
                      for exc in (out if isinstance(out, list) else [])
                      if isinstance(exc, Exception) and not isinstance(exc, TerraFilterError)]
    finally:
        signal.signal(signal.SIGALRM, previous)
    return wrong


CASES = [pytest.param(name, param, id=f"{name}.{param}")
         for name in terrafilter.__all__ if name not in EXEMPT
         for param in _parameters(getattr(terrafilter, name))]


def test_exemptions_are_public_callables():
    assert EXEMPT <= set(terrafilter.__all__)
    assert all(callable(getattr(terrafilter, name)) for name in terrafilter.__all__)


@pytest.mark.parametrize("name, param", CASES)
def test_junk_argument_gives_result_or_typed_error(name, param, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # write_trace_csv writes a file named 1
    assert _wrong(lambda junk: _call(name, param, junk)) == []


def _config_call(cls, param, junk):
    """Build a run config with one field of it, or of its algorithm, set to
    ``junk``; a built config is then used as a run uses it."""
    if cls is AlgorithmSpec:
        config = one_cell_config(
            algorithms=[AlgorithmSpec(**{"name": "lms", "kind": "lms", param: junk})])
    else:
        config = one_cell_config(**{param: junk})
    config_hash(config)
    return [build_filter(spec, scenario) for spec in config.algorithms
            for scenario in config.scenarios]


@pytest.mark.parametrize("cls, param", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (ExperimentConfig, AlgorithmSpec) for f in dataclasses.fields(cls)])
def test_junk_config_field_gives_config_or_typed_error(cls, param):
    assert _wrong(lambda junk: _config_call(cls, param, junk)) == []


# each filter method's valid arguments; step's filter is fitted first
METHODS = {"fit": (TRACE.times[:100], TRACE.measurement[:100]),
           "run": (TRACE.times, TRACE.measurement),
           "run_detailed": (TRACE.times, TRACE.measurement),
           "run_lockstep_detailed": ([TRACE.times] * 2, [TRACE.measurement] * 2),
           "step": (TRACE.times[100], TRACE.measurement[100])}


def _method_call(cls, method, position, junk):
    filt = cls()
    if method == "step":
        filt.fit(*METHODS["fit"])
    args = list(METHODS[method])
    args[position] = junk
    return getattr(filt, method)(*args)


@pytest.mark.parametrize("position", [0, 1], ids=["times", "measurements"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("cls", FILTER_KINDS.values(), ids=FILTER_KINDS)
def test_junk_sample_gives_result_or_typed_error(cls, method, position):
    assert _wrong(lambda junk: _method_call(cls, method, position, junk)) == []


# -- the cases the contract found, one test each ---------------------------


def test_bool_parameter_takes_only_a_bool():
    with pytest.raises(InvalidInputError, match="outlier_gate must be a bool, got str"):
        RvmRls(outlier_gate="no").run(TRACE.times, TRACE.measurement)


def test_string_annotation_refused():
    # a postponed annotation is a str, which check_numbers cannot check
    @dataclasses.dataclass(eq=False)
    class Extended(NormalizedLms):
        extra: "int" = 1

    with pytest.raises(InvalidInputError, match="extra has the string annotation 'int'"):
        Extended(extra="a").fit(np.arange(100.0), np.zeros(100))


def test_str_field_takes_only_a_str():
    with pytest.raises(InvalidInputError, match="name must be a str, got int"):
        ScenarioConfig(name=5)


def test_class_field_takes_only_its_class():
    with pytest.raises(InvalidInputError, match="terrain must be a TerrainParams, got NoneType"):
        ScenarioConfig(terrain=None)


def test_one_of_parameter_takes_only_a_str():
    with pytest.raises(InvalidInputError, match="covariance_init must be a str, got ndarray"):
        RvmRls(covariance_init=np.array(["gram", "x"])).run(TRACE.times, TRACE.measurement)


def test_terrain_height_takes_only_terrain_params():
    with pytest.raises(InvalidInputError, match="params must be a TerrainParams, got NoneType"):
        terrain_height(1.0, None)
    assert terrain_height([], TerrainParams()).shape == (0,)


def test_time_step_takes_only_a_trace():
    with pytest.raises(InvalidInputError, match="trace must be a ScenarioTrace, got dict"):
        time_step(NormalizedLms(), {"times": TRACE.times})


def test_time_step_takes_only_a_filter():
    with pytest.raises(InvalidInputError, match="filt must be a StreamingFilter, got int"):
        time_step(5, TRACE)


def test_write_trace_csv_takes_only_a_file_path(tmp_path):
    with pytest.raises(InvalidInputError, match="path must be a file path"):
        write_trace_csv(TRACE, None)
    write_trace_csv(TRACE, tmp_path / "trace.csv")
    write_trace_csv(TRACE, bytes(tmp_path / "bytes.csv"))
    assert (tmp_path / "bytes.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()
