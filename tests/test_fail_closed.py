"""The metrics, the geometry helpers and scenario synthesis fail closed: on
any float input, huge, tiny, NaN and inf included, each returns finite values
or raises a TerraFilterError subclass. So does the reports reader, on any
text, and the config loader, on any mutation of the benchmark config. Tier-1
turns a numpy RuntimeWarning into a failure, so an overflow that only warns
fails here too.
"""

import csv
import dataclasses
import io
import json
import math
import os
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terrafilter import (BootstrapParticleFilter, ConfigError, InvalidInputError,
                         NormalizedLms, RvmRls, ScenarioConfig, TerrainParams, TerraFilterError,
                         WaypointGeometry, batch_least_squares, max_error, mse,
                         next_waypoint, synthesize, variance_ratio, waypoint_std)
from terrafilter import bench
from terrafilter.base import Interval, OneOf, StreamingFilter
from terrafilter.bench import FILTER_KINDS, AlgorithmSpec, ExperimentConfig, load_config
from terrafilter.metrics import (REPORT_FIELDS, aggregate_csv, render_tables,
                                 reports_from_csv)

from goldens import BENCHMARK_CONFIG

# every float, NaN and the infinities included; hypothesis favours the
# extremes: the largest and smallest normals, subnormals and signed zeros
ANY = st.floats()
PAIRS = st.lists(st.tuples(ANY, ANY), min_size=1, max_size=6)
SUITE = settings(max_examples=300, deadline=None, database=None, derandomize=True)


# past Python's 4,300-digit limit for printing an int, so a message that
# formats it with repr would itself raise a ValueError
HUGE = 10**5000
GEOMETRY = WaypointGeometry(pitch=0.1, yaw=0.0, lidar_distance=1.0, clearance=5.0)


@pytest.mark.parametrize("build, message", [
    (lambda: RvmRls(step_size=HUGE).fit(np.arange(100.0), np.zeros(100)),
     "step_size must be finite, got <int of 5001 digits>"),
    (lambda: ScenarioConfig(clearance=-HUGE),
     "clearance must be finite, got <int of 5001 digits>"),
    (lambda: ScenarioConfig(sample_count=HUGE),
     r"sample_count must lie in \[1, 1000000\], got <int of 5001 digits>"),
    (lambda: ScenarioConfig(outlier_band=(HUGE, 30.0)),
     r"outlier_band must be finite, got \(<int of 5001 digits>, 30.0\)"),
    (lambda: BootstrapParticleFilter(particle_count=HUGE)._validate_params(),
     r"particle_count must lie in \[2, 1000000\], got <int of 5001 digits>"),
    (lambda: batch_least_squares(np.arange(10.0), np.ones(10), HUGE),
     r"degree must lie in \[0, 10\], got <int of 5001 digits>"),
    (lambda: next_waypoint([0.0, HUGE - 1, 0.0], GEOMETRY),
     r"current must be 3 numbers, got \[0.0, <int of 5000 digits>, 0.0\]"),
    (lambda: ExperimentConfig(scenarios=(ScenarioConfig(),), seeds=(0, -HUGE),
                              algorithms=(AlgorithmSpec(name="lms", kind="lms"),)),
     r"seeds\[1\] must lie in \[0, inf\), got <int of 5001 digits>"),
], ids=["check_numbers-float", "check_numbers-negative", "sample_count", "check_numbers-tuple",
        "particle_count", "degree", "floats-count", "config-seeds"])
def test_huge_integer_shown_by_digit_count(build, message):
    with pytest.raises(TerraFilterError, match=message):
        build()


# Every class whose constructor declares rules in its annotations, with the
# arguments it needs besides: with no outliers, noise_variance 0 and any
# sample_count are allowed, and with clean_prefix 0 outlier_fraction 1 is.
DECLARING = {**{cls: {} for cls in FILTER_KINDS.values()}, TerrainParams: {},
             ScenarioConfig: {"outlier_fraction": 0.0, "clean_prefix": 0},
             WaypointGeometry: {"pitch": 0.1, "yaw": 0.0, "lidar_distance": 1.0,
                                "clearance": 5.0}}


def _declared_cases():
    """``(class, field, value, verb or None when accepted)``, read from the
    annotations: each finite end of an ``Interval``, accepted if closed, and
    each value of a ``OneOf``, and the empty string, which none holds."""
    for cls in DECLARING:
        for name, tp in typing.get_type_hints(cls.__init__, include_extras=True).items():
            for rule in (rule for arg in (tp, *typing.get_args(tp))  # ``T | None``
                         for rule in getattr(arg, "__metadata__", ())):
                if isinstance(rule, Interval):
                    cases = [(end, None if bracket in "[]" else rule.verb)
                             for end, bracket in zip((rule.low, rule.high), rule.ends)
                             if math.isfinite(end)]
                else:
                    assert isinstance(rule, OneOf) and "" not in rule, rule
                    cases = [(value, None) for value in rule] + [("", rule.verb)]
                for value, verb in cases:
                    yield pytest.param(cls, name, value, verb,
                                       id=f"{cls.__name__}.{name}={value!r}")


DECLARED_CASES = list(_declared_cases())


def _build(cls, **params):
    built = cls(**{**DECLARING[cls], **params})
    if isinstance(built, StreamingFilter):
        built._validate_params()


@pytest.mark.parametrize("cls, name, value, verb", DECLARED_CASES)
def test_declared_rule_at_its_ends(cls, name, value, verb):
    if verb is None:
        _build(cls, **{name: value})
    else:
        with pytest.raises(InvalidInputError, match=rf"^{name} must {verb} "):
            _build(cls, **{name: value})


# the particle filter is seeded with each cell's trace seed, and a config
# takes no seed for it
@pytest.mark.parametrize("cls, name, value, verb", [
    case for case in DECLARED_CASES if issubclass(case.values[0], StreamingFilter)
    and case.values[:2] != (BootstrapParticleFilter, "seed")])
def test_declared_rule_at_its_ends_through_load_config(cls, name, value, verb, tmp_path):
    kind = next(kind for kind, kind_cls in FILTER_KINDS.items() if kind_cls is cls)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "version": 1, "seeds": [0], "scenarios": [{"name": "s"}],
        "algorithms": [{"name": "a", "kind": kind, "params": {name: value}}]}))
    if verb is None:
        assert load_config(path).algorithms[0].params == {name: value}
    else:
        with pytest.raises(ConfigError,
                           match=rf"^config\.algorithms\[0\]\.params: {name} must {verb} "):
            load_config(path)


def test_fields_checked_and_parsed_whatever_the_constructor():
    # the checks and the config parser read a filter's dataclass fields, not
    # its constructor's signature, so a subclass that takes **params works
    class Tuned(NormalizedLms):
        def __init__(self, **params):
            super().__init__(**{"mu": 0.3, **params})

    trace = synthesize(ScenarioConfig(sample_count=200, clean_prefix=100))
    assert Tuned().fit(trace.times[:100], trace.measurement[:100]).is_fitted_
    with pytest.raises(InvalidInputError, match=r"^mu must lie in \(0, 2\), got 5"):
        Tuned(mu=5).fit(trace.times[:100], trace.measurement[:100])
    assert bench._build({"mu": 0.5}, Tuned, "params").mu == 0.5
    with pytest.raises(ConfigError, match=r"^params\.bogus: unknown key"):
        bench._build({"bogus": 1}, Tuned, "params")


def assert_fails_closed(fn, *args):
    """``fn(*args)`` either raises a TerraFilterError or returns only
    finite numbers."""
    try:
        out = fn(*args)
    except TerraFilterError:
        return
    assert np.isfinite(np.asarray(out, dtype=float)).all(), (args, out)


@SUITE
@given(pairs=PAIRS, sigma2=ANY)
def test_metrics(pairs, sigma2):
    pred, ref = zip(*pairs)
    assert_fails_closed(mse, pred, ref)
    assert_fails_closed(max_error, pred, ref)
    assert_fails_closed(variance_ratio, pred, ref, sigma2)


@SUITE
@given(geometry=st.tuples(ANY, ANY, ANY, ANY, ANY, ANY))
def test_waypoint_std(geometry):
    assert_fails_closed(lambda: waypoint_std(WaypointGeometry(*geometry)))


@SUITE
@given(current=st.tuples(ANY, ANY, ANY), geometry=st.tuples(ANY, ANY, ANY, ANY),
       noise=st.tuples(ANY, ANY))
def test_next_waypoint(current, geometry, noise):
    assert_fails_closed(lambda: next_waypoint(current, WaypointGeometry(*geometry), noise))


def _synthesized(scenario, terrain):
    trace = synthesize(ScenarioConfig(**scenario, terrain=TerrainParams(*terrain)))
    return [trace.times, trace.terrain, trace.reference, trace.measurement,
            trace.injected_outliers]


@SUITE
@given(scenario=st.fixed_dictionaries({
           "sample_count": st.integers(1, 30), "clean_prefix": st.integers(0, 30),
           "clearance": ANY, "noise_variance": ANY,
           "outlier_fraction": st.one_of(ANY, st.floats(0.0, 1.0)),
           "outlier_band": st.tuples(ANY, ANY), "seed": st.integers(0, 3)}),
       terrain=st.tuples(ANY, ANY, ANY, ANY, ANY))
def test_scenario_synthesis(scenario, terrain):
    assert_fails_closed(_synthesized, scenario, terrain)



# a reports row: typed, so that most are accepted and share (scenario,
# algorithm) groups, or any cells of random text and numbers
FINITE = st.floats(allow_nan=False, allow_infinity=False)
TYPED_ROW = st.tuples(st.sampled_from(["rls", "lms"]), ANY, FINITE, FINITE, FINITE,
                      st.sampled_from(["s", "t"]), st.integers(-1, 3))
ANY_ROW = st.lists(st.one_of(st.text(max_size=8), ANY, st.integers(-3, 3)), max_size=8)


@SUITE
@given(rows=st.lists(st.one_of(TYPED_ROW, ANY_ROW), max_size=6), quoted=st.booleans())
def test_reports_from_csv(rows, quoted):
    lines = [REPORT_FIELDS] + [[str(cell) for cell in row] for row in rows]
    if quoted:  # as a csv writer quotes them
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        text = buf.getvalue()
    else:
        text = "\n".join(",".join(line) for line in lines)
    try:
        reports = reports_from_csv(text)
    except InvalidInputError:
        return
    assert isinstance(aggregate_csv(reports), str)
    assert isinstance(render_tables(reports), str)


# Integers are small, or 10**15 and beyond: a sample_count or particle_count
# drawn from them never allocates much, with or without a bound on it, and
# 10**309 and 10**400 lie beyond the float range.
INTEGERS = st.integers(-3, 3000) | st.sampled_from(
    [10**15, -10**15, 10**30, 10**309, 10**400, -10**400])
LEAVES = st.none() | st.booleans() | INTEGERS | ANY | st.text(max_size=5)
JSON = LEAVES | st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                             | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                             max_leaves=5)
# an added key is mostly one that some config object takes
KEYS = st.sampled_from(sorted(
    {"version", "workers"} | {f.name for cls in (ExperimentConfig, ScenarioConfig,
                                                 TerrainParams, *FILTER_KINDS.values())
                              for f in dataclasses.fields(cls)})) | st.text(max_size=5)


def _slots(node):
    """Every ``(container, key, value)`` under the parsed JSON ``node``."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        yield node, key, value
        yield from _slots(value)


def _mutate(payload, data):
    """Replace a leaf, drop a key or add a key, as ``data`` draws it."""
    slots = list(_slots(payload))
    kind = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if kind == "replace":
        container, key, _ = data.draw(st.sampled_from(
            [slot for slot in slots if not isinstance(slot[2], (dict, list))]))
        container[key] = data.draw(JSON)
        return
    objects = [payload] + [value for _, _, value in slots if isinstance(value, dict)]
    if kind == "drop":
        target = data.draw(st.sampled_from([obj for obj in objects if obj]))
        del target[data.draw(st.sampled_from(sorted(target)))]
    else:
        data.draw(st.sampled_from(objects))[data.draw(KEYS)] = data.draw(JSON)


@SUITE
@given(data=st.data())
def test_load_config(data):
    payload = json.loads(BENCHMARK_CONFIG.read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(payload, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        try:
            config = load_config(path)
        except ConfigError:
            return
    assert isinstance(config, ExperimentConfig)
