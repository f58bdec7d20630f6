"""The metrics, the geometry helpers and scenario synthesis fail closed: on
any float input, huge, tiny, NaN and inf included, each returns finite values
or raises a TerraFilterError subclass. Tier-1 turns a numpy RuntimeWarning
into a failure, so an overflow that only warns fails here too.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from terrafilter import (ScenarioConfig, TerrainParams, TerraFilterError,
                         WaypointGeometry, max_error, mse, next_waypoint,
                         synthesize, variance_ratio, vertical_recursion,
                         waypoint_std)

# every float, NaN and the infinities included; hypothesis favours the
# extremes: the largest and smallest normals, subnormals and signed zeros
ANY = st.floats()
PAIRS = st.lists(st.tuples(ANY, ANY), min_size=1, max_size=6)
SUITE = settings(max_examples=300, deadline=None, database=None, derandomize=True)


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
@given(args=st.tuples(ANY, ANY, ANY, ANY))
def test_waypoint_std(args):
    assert_fails_closed(waypoint_std, *args)


@SUITE
@given(args=st.tuples(ANY, ANY, ANY, ANY, ANY, ANY))
def test_vertical_recursion(args):
    assert_fails_closed(vertical_recursion, *args)


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

