"""The metrics, the geometry helpers and scenario synthesis fail closed: on
any float input, huge, tiny, NaN and inf included, each returns finite values
or raises a TerraFilterError subclass. So does the reports reader, on any
text. Tier-1 turns a numpy RuntimeWarning into a failure, so an overflow that
only warns fails here too.
"""

import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from terrafilter import (InvalidInputError, ScenarioConfig, TerrainParams,
                         TerraFilterError, WaypointGeometry, max_error, mse,
                         next_waypoint, synthesize, variance_ratio,
                         vertical_recursion, waypoint_std)
from terrafilter.metrics import (REPORT_FIELDS, aggregate_csv, render_tables,
                                 reports_from_csv)

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
