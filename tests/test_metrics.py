import dataclasses

import numpy as np
import pytest

from terrafilter import (InvalidInputError, MetricsReport, NormalizedLms, RvmRls,
                         ScenarioConfig, max_error, mse, synthesize, time_step,
                         variance_ratio)
from terrafilter.metrics import TIMED_RUNS, TIMED_STEPS, reports_from_csv, reports_to_csv


def _report(algorithm="a", scenario="s", seed=0, **kw):
    base = dict(sr_ms=1.0, mse=1.0, vr=1.0, me=1.0)
    base.update(kw)
    return MetricsReport(algorithm=algorithm, scenario_id=scenario, seed=seed,
                         **base)


class TestMse:
    def test_exact_match(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        ref = np.zeros(100)
        assert mse(ref + 0.1, ref) == pytest.approx(0.01)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            mse([], [])

    @pytest.mark.parametrize("metric", [mse, max_error,
                                        lambda p, r: variance_ratio(p, r, 0.09)],
                             ids=["mse", "max_error", "variance_ratio"])
    @pytest.mark.parametrize("pred, ref", [([np.nan], [0.0]), ([0.0], [np.inf]),
                                           ([1.0, -np.inf], [1.0, 2.0])])
    def test_non_finite_input_rejected(self, metric, pred, ref):
        with pytest.raises(InvalidInputError, match="must be finite"):
            metric(pred, ref)

    @pytest.mark.parametrize("metric", [mse, max_error,
                                        lambda p, r: variance_ratio(p, r, 0.09)],
                             ids=["mse", "max_error", "variance_ratio"])
    @pytest.mark.parametrize("pred, ref", [(["a"], [0.0]), ([0.0], ["a"]),
                                           ([10**400], [0.0]), ([0.0], [-10**400]),
                                           (["1"], ["2"])],
                             ids=["pred-a", "ref-a", "pred-10**400", "ref-10**400",
                                  "digits"])
    def test_non_numeric_input_rejected(self, metric, pred, ref):
        with pytest.raises(InvalidInputError, match="must be numbers"):
            metric(pred, ref)

    @pytest.mark.parametrize("name, metric, args", [
        ("mse", mse, ([1e200], [0.0])),
        ("max_error", max_error, ([1e308], [-1e308])),
        ("variance_ratio", variance_ratio, ([1e200, -1e200], [0.0, 0.0], 0.09)),
        ("variance_ratio", variance_ratio, ([1.0, -1.0], [0.0, 0.0], 1e-320)),
    ])
    def test_overflow_rejected(self, name, metric, args):
        with pytest.raises(InvalidInputError, match=f"{name} overflows"):
            metric(*args)


class TestVarianceRatio:
    def test_exact_match(self):
        assert variance_ratio(np.ones(10), np.ones(10), 0.09) == 0.0

    def test_identity_filter(self, rng):
        ref = np.zeros(2000)
        pred = rng.normal(0.0, 0.3, 2000)
        assert variance_ratio(pred, ref, 0.09) == pytest.approx(1.0, abs=0.07)

    def test_sigma_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            variance_ratio([1.0], [1.0], 0.0)

    @pytest.mark.parametrize("sigma2", [np.inf, np.nan, "x", None, True,
                                        pytest.param(10**400, id="10**400")])
    def test_non_finite_sigma_rejected(self, sigma2):
        with pytest.raises(InvalidInputError, match="sigma2 must be a positive finite"):
            variance_ratio([1.0], [1.0], sigma2)

    def test_bias_decomposition(self, rng):
        # population variance = mean square - squared mean, exactly
        pred = rng.normal(0.5, 1.0, 500)
        ref = np.zeros(500)
        err = pred - ref
        lhs = variance_ratio(pred, ref, 0.09)
        rhs = mse(pred, ref) / 0.09 - err.mean() ** 2 / 0.09
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMaxError:
    def test_exact_match(self):
        assert max_error([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_single_spike(self):
        ref = np.zeros(50)
        pred = ref.copy()
        pred[17] = 2.0
        assert max_error(pred, ref) == 2.0

    def test_dominates_rms(self, rng):
        pred = rng.normal(0.0, 1.0, 300)
        ref = rng.normal(0.0, 1.0, 300)
        assert max_error(pred, ref) >= np.sqrt(mse(pred, ref))

    def test_invariant_under_common_reordering(self, rng):
        pred = rng.normal(0.0, 1.0, 100)
        ref = rng.normal(0.0, 1.0, 100)
        perm = rng.permutation(100)
        assert max_error(pred[perm], ref[perm]) == max_error(pred, ref)
        assert mse(pred[perm], ref[perm]) == pytest.approx(mse(pred, ref))
        assert variance_ratio(pred[perm], ref[perm], 0.09) == pytest.approx(
            variance_ratio(pred, ref, 0.09))


@pytest.fixture(scope="module")
def short_trace():
    return synthesize(ScenarioConfig(sample_count=400, clean_prefix=100, seed=0))


class TestTimeStep:
    class _NoOp(NormalizedLms):
        def step(self, t, y):
            return 0.0

    class _Duck:
        init_window = 10

        def fit(self, t, y):
            return self

        def step(self, t, y):
            return 0.0

    def test_noop_floor(self, short_trace):
        sr = time_step(self._NoOp(), short_trace)
        assert sr < 0.01

    def test_repeatability(self, short_trace):
        a = time_step(NormalizedLms(), short_trace)
        b = time_step(NormalizedLms(), short_trace)
        assert abs(a - b) / max(a, b) < 0.5

    def test_malformed_trace_rejected(self, short_trace):
        with pytest.raises(InvalidInputError, match="measurement must be a ndarray, got list"):
            time_step(NormalizedLms(),
                      dataclasses.replace(short_trace, measurement=[0.0] * len(short_trace)))

    # a filter class and a duck-typed object each carry an integer
    # init_window, a fit and a step
    @pytest.mark.parametrize("filt", [5, None, _Duck(), RvmRls],
                             ids=["int", "None", "duck", "class"])
    def test_takes_only_a_filter(self, filt, short_trace):
        with pytest.raises(InvalidInputError, match="filt must be a StreamingFilter"):
            time_step(filt, short_trace)

    @pytest.mark.parametrize("init_window", [10.0, True],
                             ids=["float_init_window", "bool_init_window"])
    def test_params_checked_before_any_run(self, init_window, short_trace):
        with pytest.raises(InvalidInputError, match="init_window must be an integer"):
            time_step(NormalizedLms(init_window=init_window), short_trace)

    def test_leaves_its_filter_as_it_was(self, short_trace):
        filt = NormalizedLms(mu=0.3)
        params = filt.get_params()
        time_step(filt, short_trace)
        assert filt.get_params() == params
        assert not hasattr(filt, "is_fitted_")

    @pytest.mark.parametrize("sample_count", [400, 2000])
    def test_steps_timed(self, sample_count):
        steps = []

        class Counting(NormalizedLms):
            def step(self, t, y):
                steps.append(t)
                return super().step(t, y)

        trace = synthesize(ScenarioConfig(sample_count=sample_count, clean_prefix=100,
                                          seed=0))
        filt = Counting()
        time_step(filt, trace)
        span = min(sample_count - filt.init_window, TIMED_STEPS)
        assert len(steps) == (TIMED_RUNS + 1) * span

    def test_too_short(self):
        trace = synthesize(ScenarioConfig(sample_count=10, clean_prefix=0,
                                          outlier_fraction=0.0, seed=0))
        with pytest.raises(InvalidInputError, match="too short"):
            time_step(self._NoOp(init_window=10), trace)  # init window consumes everything


class TestReportCsv:
    def test_roundtrip(self):
        reports = [_report("rvm_rls", "s1", 0, mse=0.25),
                   _report("pf", "s1", 1, vr=2.5)]
        text = reports_to_csv(reports)
        assert text.splitlines()[0] == "algorithm,sr_ms,mse,vr,me,scenario_id,seed"
        back = reports_from_csv(text)
        assert [r.algorithm for r in back] == ["rvm_rls", "pf"]
        assert back[0].mse == 0.25
        assert back[1].seed == 1

    def test_bad_header(self):
        with pytest.raises(InvalidInputError):
            reports_from_csv("a,b\n1,2\n")

    @pytest.mark.parametrize("row, message", [
        ("rvm_rls,0.1,abc,1,1,s1,0", "reports line 3, column mse: expected float, got 'abc'"),
        ("rvm_rls,0.1,0.2", "reports line 3: expected 7 columns, got 3"),
        ("rvm_rls,0.1,nan,1,1,s1,0", "reports line 3, column mse: expected a finite float, got 'nan'"),
        ("rvm_rls,0.1,0.2,inf,1,s1,0", "reports line 3, column vr: expected a finite float, got 'inf'"),
        ("rvm_rls,-inf,0.2,1,1,s1,0", "reports line 3, column sr_ms: expected a finite float or nan, got '-inf'"),
        ("rvm_rls,0.1,0.2,1,1,s1,-1", "reports line 3, column seed: expected a non-negative int, got '-1'"),
    ], ids=["mse_abc", "three_columns", "mse_nan", "vr_inf", "sr_ms_inf", "negative_seed"])
    def test_malformed_row_names_line_and_column(self, row, message):
        text = reports_to_csv([_report()]) + row + "\n"
        with pytest.raises(InvalidInputError) as err:
            reports_from_csv(text)
        assert str(err.value) == message

    def test_failed_timing_nan_is_read_back(self):
        # a failed timing run leaves its rows' sr_ms NaN, recorded in the manifest
        (back,) = reports_from_csv(reports_to_csv([_report(sr_ms=float("nan"))]))
        assert np.isnan(back.sr_ms)
