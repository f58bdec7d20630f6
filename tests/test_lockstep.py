"""``run_lockstep_detailed`` must reproduce ``run`` bit for bit, trace by trace.

Every filter copy in a lockstep batch must give exactly the predictions
that its own ``run`` gives, and the columns that its own ``run_detailed``
gives (for RvmRls, the fig4 columns), or exactly the exception ``run``
raises: same type, message and step index. The benchmark traces are cut to
their first ``TRACE_LENGTH`` samples; the full-length outputs of the
lockstep path are checked against the goldens by the benchmark tests.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terrafilter import (BootstrapParticleFilter, GvffRls, InvalidInputError, NormalizedLms,
                         NumericalDivergenceError, RvmRls, ScenarioConfig,
                         StaticRls, TerraFilterError, synthesize)
from terrafilter.base import StreamingFilter
from terrafilter.bench import build_filter, load_config

from goldens import BENCHMARK_CONFIG

TRACE_LENGTH = 300
SEEDS = range(20)  # terrain_outliers seeds 12, 16 and 18 gate their first
#                    post-window sample, so their "residual" init factors
#                    stay F-ordered for a few more steps

CASES = {
    "rvm_rls": lambda var: RvmRls(target_noise_variance=var),
    "rvm_rls_no_gate": lambda var: RvmRls(target_noise_variance=var,
                                          outlier_gate=False),
    "rvm_rls_gram": lambda var: RvmRls(covariance_init="gram"),
    "rvm_rls_degree_2": lambda var: RvmRls(degree=2, target_noise_variance=var),
    "rls": lambda var: StaticRls(),
    "rls_degree_1": lambda var: StaticRls(degree=1),
    "rls_residual": lambda var: StaticRls(covariance_init="residual"),
    "gvff_rls": lambda var: GvffRls(),
    "gvff_rls_residual": lambda var: GvffRls(covariance_init="residual"),
    "lms": lambda var: NormalizedLms(),
    "lms_degree_2": lambda var: NormalizedLms(degree=2, mu=0.05),
}
FIG4_COLUMNS = ["prediction", "residual", "rejected", "lambda", "sigma2_hat"]
RECURSIVE = {"rvm_rls": CASES["rvm_rls"], "rls": CASES["rls"],
             "gvff_rls": CASES["gvff_rls"], "lms": CASES["lms"]}


@pytest.fixture(scope="module", params=["terrain_outliers", "terrain_clean"])
def scenario_traces(request):
    scenario = next(s for s in load_config(BENCHMARK_CONFIG).scenarios
                    if s.name == request.param)
    traces = [synthesize(scenario.with_seed(seed)) for seed in SEEDS]
    return (scenario.noise_variance,
            [t.times[:TRACE_LENGTH] for t in traces],
            [t.measurement[:TRACE_LENGTH] for t in traces])


def _single(run, times, measurements):
    """``run``'s result, or the exception it raises. The broken traces
    overflow on purpose, so numpy's overflow warnings stay off, here and
    around the lockstep call it is compared with."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return run(times, measurements)
    except Exception as exc:  # compared with the lockstep row's exception
        return exc


def _predictions(filt, times, measurements):
    """Per trace, the ``prediction`` column of ``filt.run_lockstep_detailed``,
    or the exception in its place."""
    return [out if isinstance(out, Exception) else out["prediction"]
            for out in filt.run_lockstep_detailed(times, measurements)]


def _assert_same(expected, got):
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        assert getattr(got, "step_index", None) == getattr(expected, "step_index", None)
    else:
        assert not isinstance(got, Exception), got
        assert np.array_equal(got, expected)


def _assert_same_columns(expected, got):
    if isinstance(expected, Exception):
        _assert_same(expected, got)
        return
    assert list(got) == list(expected)
    for name, column in expected.items():
        assert got[name].dtype == column.dtype, name
        assert np.array_equal(got[name], column), name


@pytest.mark.parametrize("case", list(CASES))
def test_matches_run(case, scenario_traces):
    variance, times, measurements = scenario_traces
    make = CASES[case]
    got = _predictions(make(variance), times, measurements)
    assert len(got) == len(times)
    for t, y, row in zip(times, measurements, got):
        _assert_same(make(variance).run(t, y), row)


@pytest.mark.parametrize("case", list(CASES))
def test_detailed_columns_match_run_detailed(case, scenario_traces):
    # RvmRls carries the fig4 columns; every other filter only its predictions
    variance, times, measurements = scenario_traces
    make = CASES[case]
    got = make(variance).run_lockstep_detailed(times, measurements)
    for t, y, columns in zip(times, measurements, got):
        assert list(columns) == (FIG4_COLUMNS if case.startswith("rvm_rls")
                                 else ["prediction"])
        _assert_same_columns(make(variance).run_detailed(t, y), columns)


def _broken_batch(times, measurements):
    """Eight traces of ``TRACE_LENGTH`` or fewer samples; rows 1 to 7 each
    fail in their own way, or end early."""
    times = [t.copy() for t in times[:8]]
    measurements = [y.copy() for y in measurements[:8]]
    measurements[1][100 + 7] = np.nan          # non-finite measurement
    times[2] = times[2][:60]                   # shorter than init_window
    measurements[2] = measurements[2][:60]
    measurements[3][100 + 11] = 1.7e308        # finite, but overflows the state
    times[4][100 + 5] = times[4][100 + 4]      # clock does not advance
    times[5] = times[5][:250]                  # ends early, and cleanly
    measurements[5] = measurements[5][:250]
    measurements[6][50] = 1e200                # window variance overflows
    times[7][100 + 50:] += 1e80                # the basis overflows
    return times, measurements


FAILING = dict(RECURSIVE, rvm_rls_no_gate=CASES["rvm_rls_no_gate"],
               rvm_rls_gram=CASES["rvm_rls_gram"])
# what run raises on rows of the broken batch where the filters differ
DIVERGES = "parameter vector became non-finite (step_index=111)"
RAISES = {
    "rls": {3: DIVERGES}, "gvff_rls": {3: DIVERGES},
    # the squared spike overflows the variance estimate before the parameters
    "rvm_rls_no_gate": {3: "variance estimate became non-finite (step_index=111)"},
    # a level tracker has no basis to overflow, and 1e80 + 151 == 1e80 + 150
    "lms": {7: "time must increase strictly (got 1e+80 after 1e+80)"},
}


@pytest.mark.parametrize("case", list(FAILING))
def test_failing_rows_match_run_and_leave_the_others(case, scenario_traces):
    variance, times, measurements = scenario_traces
    make = FAILING[case]
    times, measurements = _broken_batch(times, measurements)
    expected = [_single(make(variance).run, t, y) for t, y in zip(times, measurements)]
    raises = {1: "time and measurement must be finite",
              2: "trace shorter than the initialization window (60 < 100)",
              4: "time must increase strictly (got 104.0 after 104.0)",
              6: "the residual variance overflows: the measurements are too large",
              7: "prediction became non-finite (step_index=150)",
              **RAISES.get(case, {})}
    assert {r: str(expected[r]) for r in raises} == raises
    assert len(expected[5]) == 150
    with np.errstate(over="ignore", invalid="ignore"):  # row 6's fit overflows
        got = _predictions(make(variance), times, measurements)
    for e, g in zip(expected, got):
        _assert_same(e, g)
    if case.startswith("rvm_rls"):
        with np.errstate(over="ignore", invalid="ignore"):
            details = make(variance).run_lockstep_detailed(times, measurements)
        for t, y, columns in zip(times, measurements, details):
            _assert_same_columns(_single(make(variance).run_detailed, t, y), columns)


@pytest.mark.parametrize("case", list(FAILING))
def test_overflowing_rows_raise_no_numpy_warning(case, scenario_traces):
    # the warnings filter turns a RuntimeWarning into an error; the fits
    # are clean, and the steps of the overflowing rows 3 and 7 warn nowhere
    variance, times, measurements = scenario_traces
    times, measurements = _broken_batch(times, measurements)
    rows = [0, 3, 7]
    got = _predictions(FAILING[case](variance), [times[r] for r in rows],
                       [measurements[r] for r in rows])
    for r, g in zip(rows, got):
        _assert_same(_single(FAILING[case](variance).run, times[r], measurements[r]), g)


@pytest.mark.parametrize("case", list(FAILING))
def test_guard_at_the_last_step_is_not_missed(case, scenario_traces):
    # no later step flags these rows again: each guard must flag them itself
    # (1e308 overflows the parameters; for gvff_rls on terrain_outliers,
    # 1e306 overflows only the sensitivity vector)
    variance, times, measurements = scenario_traces
    times, measurements = times[:3], [y.copy() for y in measurements[:3]]
    measurements[1][-1] = 1e308
    measurements[2][-1] = 1e306
    make = FAILING[case]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _predictions(make(variance), times, measurements)
    for t, y, row in zip(times, measurements, got):
        _assert_same(_single(make(variance).run, t, y), row)


@pytest.mark.parametrize("case", list(RECURSIVE))
def test_one_trace_takes_the_run_path(case, scenario_traces, monkeypatch):
    variance, times, measurements = scenario_traces
    filt = RECURSIVE[case](variance)

    def no_lockstep(*args):
        raise AssertionError("a single trace must not take the lockstep path")

    monkeypatch.setattr(type(filt), "_lockstep_step", no_lockstep)
    (got,) = _predictions(filt, times[:1], measurements[:1])
    assert np.array_equal(got, RECURSIVE[case](variance).run(times[0], measurements[0]))
    (columns,) = filt.run_lockstep_detailed(times[:1], measurements[:1])
    _assert_same_columns(filt.run_detailed(times[0], measurements[0]), columns)


@pytest.mark.parametrize("case", list(CASES))
def test_traces_exactly_init_window_long_stack_zero_steps(case, scenario_traces,
                                                          monkeypatch):
    # no post-window sample: every stacked input has zero steps, and each
    # row gets run_detailed's empty columns from the lockstep itself
    variance, times, measurements = scenario_traces
    n0 = CASES[case](variance).init_window
    times, measurements = [t[:n0] for t in times[:3]], [y[:n0] for y in measurements[:3]]
    expected = [CASES[case](variance).run_detailed(t, y) for t, y in zip(times, measurements)]
    reruns = []
    run_detailed = StreamingFilter.run_detailed
    monkeypatch.setattr(StreamingFilter, "run_detailed", lambda self, *trace: (
        reruns.append(trace) or run_detailed(self, *trace)))
    got = CASES[case](variance).run_lockstep_detailed(times, measurements)
    assert not reruns
    for columns, row in zip(expected, got):
        _assert_same_columns(columns, row)
        assert all(len(column) == 0 for column in row.values())


@pytest.mark.parametrize("case", list(FAILING))
def test_one_overflowing_trace_fails_as_in_a_batch(case, scenario_traces):
    # no errstate here, and tier-1 turns numpy's RuntimeWarning into an
    # error: a trace alone must still end as it does in a batch, where rls
    # raises run's typed error instead of a raw RuntimeWarning
    variance, times, measurements = scenario_traces
    y = measurements[0].copy()
    y[111] = 1.7e308
    make = FAILING[case]
    (alone,) = _predictions(make(variance), [times[0]], [y])
    batch = _predictions(make(variance), times[:2], [y, measurements[1]])
    try:
        ran = make(variance).run(times[0], y)
    except Exception as exc:  # a raw RuntimeWarning here fails the comparison
        ran = exc
    _assert_same(batch[0], alone)
    _assert_same(batch[0], ran)
    if case == "rls":
        assert isinstance(alone, NumericalDivergenceError)
        assert str(alone) == DIVERGES


@pytest.mark.parametrize("case", ["rls", "gvff_rls"])
def test_finite_parameters_beyond_1e154_step_as_in_a_batch(case, scenario_traces):
    # step keeps numpy's warning settings, which tier-1 turns into errors:
    # the parameter guard must not overflow on parameters whose square would
    variance, times, measurements = scenario_traces
    y = measurements[0].copy()
    y[111] = 1e160
    filt = RECURSIVE[case](variance)
    n0 = filt.init_window
    filt.fit(times[0][:n0], y[:n0])
    stepped = [filt.step(t, m) for t, m in zip(times[0][n0:], y[n0:])]
    assert np.abs(filt.theta_).max() > 1e154
    batch = _predictions(RECURSIVE[case](variance), times[:2], [y, measurements[1]])
    _assert_same(batch[0], np.array(stepped))


def test_particle_filter_runs_each_trace_alone(scenario_traces):
    _, times, measurements = scenario_traces
    filt = BootstrapParticleFilter(particle_count=20, seed=3)
    got = filt.run_lockstep_detailed(times[:2], measurements[:2])
    for t, y, columns in zip(times, measurements, got):
        _assert_same_columns(BootstrapParticleFilter(
            particle_count=20, seed=3).run_detailed(t, y), columns)
    assert not hasattr(filt, "is_fitted_")  # the filter itself stays unfitted


def test_lockstep_leaves_the_filter_unfitted(scenario_traces):
    _, times, measurements = scenario_traces
    filt = StaticRls()
    _predictions(filt, times[:3], measurements[:3])
    assert not hasattr(filt, "is_fitted_")


def test_flagged_row_that_step_survives_gets_runs_predictions(scenario_traces,
                                                               monkeypatch):
    # 2 * cost_gain overflows, so every gradient is infinite with finite
    # inputs: lockstep flags each row at its first update, while step clips
    # lambda to a bound and goes on
    _, times, measurements = scenario_traces
    reruns = []
    run_detailed = RvmRls.run_detailed
    monkeypatch.setattr(RvmRls, "run_detailed", lambda self, *trace: (
        reruns.append(trace) or run_detailed(self, *trace)))
    got = _predictions(RvmRls(cost_gain=1e308), times[:4], measurements[:4])
    assert len(reruns) == 4
    for t, y, row in zip(times, measurements, got):
        _assert_same(RvmRls(cost_gain=1e308).run(t, y), row)


def test_marked_gated_row_that_step_survives_gets_runs_columns(scenario_traces,
                                                                monkeypatch):
    # the gate skips the spike, but the lockstep computes the dropped update
    # first: its variance overflows, so the row is marked and goes through run
    variance, times, measurements = scenario_traces
    times, measurements = times[:4], [y.copy() for y in measurements[:4]]
    measurements[1][150] += 1e200
    reruns = []
    run_detailed = RvmRls.run_detailed
    monkeypatch.setattr(RvmRls, "run_detailed", lambda self, *trace: (
        reruns.append(trace) or run_detailed(self, *trace)))
    filt = RvmRls(target_noise_variance=variance)
    got = _predictions(filt, times, measurements)
    details = filt.run_lockstep_detailed(times, measurements)
    assert [y is measurements[1] for _, y in reruns] == [True, True]
    for t, y, row, columns in zip(times, measurements, got, details):
        _assert_same(RvmRls(target_noise_variance=variance).run(t, y), row)
        _assert_same_columns(RvmRls(target_noise_variance=variance).run_detailed(t, y),
                             columns)


def test_pool_cells_need_no_rerun(monkeypatch):
    # the lockstep serves every cell of the pool matrix itself: a stray
    # mark would re-run its row through run_detailed, which costs time
    # while every output byte stays the same
    config = load_config(BENCHMARK_CONFIG.parent / "pool.json")
    reruns = []
    run_detailed = StreamingFilter.run_detailed
    monkeypatch.setattr(StreamingFilter, "run_detailed", lambda self, *trace: (
        reruns.append(trace) or run_detailed(self, *trace)))
    for scenario in config.scenarios:
        traces = [synthesize(scenario.with_seed(seed)) for seed in config.seeds]
        for spec in config.algorithms:
            outcomes = build_filter(spec, traces[0].config).run_lockstep_detailed(
                [t.times for t in traces], [t.measurement for t in traces])
            assert all(isinstance(out, dict) for out in outcomes), (scenario.name, spec.name)
    assert not reruns


@pytest.mark.parametrize("case", ["rvm_rls", "rls_residual", "gvff_rls_residual"])
def test_zero_window_refused_at_fit(case, scenario_traces):
    # a window of exact zeros would fit a zero "residual" factor, which has
    # no update direction: fit refuses it, alone and as a lockstep row's
    # outcome, and the other rows run on
    variance, times, measurements = scenario_traces
    times, measurements = times[:4], [y.copy() for y in measurements[:4]]
    for r in (1, 3):
        measurements[r][:100] = 0.0
    make = CASES[case]
    message = ("covariance_init='residual' needs a residual variance "
               ">= 2.2250738585072014e-308, got 0.0")
    with pytest.raises(InvalidInputError) as err:
        make(variance).fit(times[1][:100], measurements[1][:100])
    assert str(err.value) == message
    got = _predictions(make(variance), times, measurements)
    for r, (t, y, row) in enumerate(zip(times, measurements, got)):
        expected = _single(make(variance).run, t, y)
        assert (str(expected) == message) == (r in (1, 3))
        _assert_same(expected, row)


# -- property: any corruption of a small batch, and lockstep still says what
# -- run says, trace by trace

PROPERTY_WINDOW = 30
PROPERTY_LENGTH = 60
PROPERTY_FILTERS = {
    "rvm_rls": lambda: RvmRls(init_window=PROPERTY_WINDOW, target_noise_variance=0.09),
    # the gate skips every spike; without it, spikes reach variance_cost
    "rvm_rls_no_gate": lambda: RvmRls(init_window=PROPERTY_WINDOW, outlier_gate=False),
    "rls": lambda: StaticRls(init_window=PROPERTY_WINDOW),
    "gvff_rls": lambda: GvffRls(init_window=PROPERTY_WINDOW),
    "lms": lambda: NormalizedLms(init_window=PROPERTY_WINDOW),
    "pf": lambda: BootstrapParticleFilter(particle_count=20, init_window=PROPERTY_WINDOW),
}


@functools.cache
def _property_traces():
    scenario = ScenarioConfig(name="terrain_outliers", clean_prefix=PROPERTY_WINDOW)
    traces = [synthesize(scenario.with_seed(seed)) for seed in range(4)]
    return [(t.times[:PROPERTY_LENGTH], t.measurement[:PROPERTY_LENGTH]) for t in traces]


# a guard missed at the last step is not caught by a later one, so the
# last sample is drawn more often
_POSITION = st.integers(1, PROPERTY_LENGTH - 1) | st.just(PROPERTY_LENGTH - 1)
CORRUPTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("nan"), _POSITION, st.booleans()),
    st.tuples(st.just("spike"), _POSITION,
              st.sampled_from([1e6, 1e100, 1e200, 1.7e308, -1.7e308])),
    # times stay increasing, but the basis overflows from here on
    st.tuples(st.just("scale"), _POSITION, st.sampled_from([1e30, 1e78, 1e200])),
    st.tuples(st.just("repeat"), _POSITION),
    st.tuples(st.just("decrease"), _POSITION),
    st.tuples(st.just("truncate"), st.integers(PROPERTY_WINDOW - 5, PROPERTY_LENGTH - 1)),
)


def _corrupt(seed, corruption):
    times, measurements = (a.copy() for a in _property_traces()[seed])
    kind, *args = corruption
    if kind == "nan":
        position, in_time = args
        (times if in_time else measurements)[position] = np.nan
    elif kind == "spike":
        position, value = args
        measurements[position] = value
    elif kind == "scale":
        position, factor = args
        times[position:] *= factor
    elif kind == "repeat":
        times[args[0]] = times[args[0] - 1]
    elif kind == "decrease":
        times[args[0]] = times[args[0] - 1] - 0.5
    elif kind == "truncate":
        times, measurements = times[:args[0]], measurements[:args[0]]
    return times, measurements


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 3), CORRUPTIONS), min_size=2, max_size=5))
def test_any_corrupted_batch_matches_run(batch):
    traces = [_corrupt(seed, corruption) for seed, corruption in batch]
    times = [t for t, _ in traces]
    measurements = [y for _, y in traces]
    with np.errstate(all="ignore"):  # the corrupted traces overflow on purpose
        for name, make in PROPERTY_FILTERS.items():
            got = _predictions(make(), times, measurements)
            for (t, y), row in zip(traces, got):
                _assert_same(_single(make().run, t, y), row)
                # fail closed: finite predictions, or a typed error
                assert (isinstance(row, TerraFilterError)
                        or not isinstance(row, Exception) and np.isfinite(row).all()), row
            if name.startswith("rvm_rls"):
                details = make().run_lockstep_detailed(times, measurements)
                for (t, y), columns in zip(traces, details):
                    _assert_same_columns(_single(make().run_detailed, t, y), columns)
