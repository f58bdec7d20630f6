import inspect
import itertools
import math
import re
import types
import typing
import warnings

import numpy as np
import pytest

from terrafilter import (BootstrapParticleFilter, GvffRls, InvalidInputError,
                         NormalizedLms, NumericalDivergenceError, RvmRls,
                         StaticRls, batch_least_squares, max_error, mse,
                         poly_basis)
from terrafilter.baselines import MAX_PARTICLE_COUNT
from terrafilter.bench import FILTER_KINDS

ALL_FILTERS = [
    lambda: RvmRls(target_noise_variance=0.09),
    lambda: StaticRls(),
    lambda: NormalizedLms(),
    lambda: GvffRls(),
    lambda: BootstrapParticleFilter(seed=0),
]
FILTER_IDS = ["rvm_rls", "rls", "lms", "gvff_rls", "pf"]

# The RLS family at one fixed forgetting factor ``lam``.
RLS_FAMILY = {
    "rls": lambda lam: StaticRls(forgetting=lam),
    "gvff_rls": lambda lam: GvffRls(lambda_min=lam, lambda_max=lam,
                                    lambda_init=lam),
    "rvm_rls": lambda lam: RvmRls(lambda_min=lam, lambda_max=lam,
                                  lambda_init=lam, outlier_gate=False),
}

# The RLS family at its defaults, with either factor and RvmRls's gates.
RLS_VARIANTS = {
    "rls": StaticRls, "rls_residual": lambda: StaticRls(covariance_init="residual"),
    "gvff_rls": GvffRls, "gvff_rls_residual": lambda: GvffRls(covariance_init="residual"),
    "rvm_rls": RvmRls, "rvm_rls_target": lambda: RvmRls(target_noise_variance=0.09),
    "rvm_rls_no_gate": lambda: RvmRls(outlier_gate=False),
    "rvm_rls_gram": lambda: RvmRls(covariance_init="gram"),
}


def _spell(tp):
    """An annotation as text: ``Annotated[float, Interval(0, 2, ends="()")]``
    is ``float lie in (0, 2)``, and ``T | None`` is ``T | NoneType``."""
    if typing.get_origin(tp) is typing.Annotated:
        base, *rules = typing.get_args(tp)
        return " ".join([_spell(base), *(f"{rule.verb} {rule}" for rule in rules)])
    if typing.get_origin(tp) in (types.UnionType, typing.Union):
        return " | ".join(map(_spell, typing.get_args(tp)))
    return tp.__name__


DEGREE = "int lie in [0, 10]"
POSITIVE = "float lie in (0, inf)"
COVARIANCE_INIT = "str be one of 'residual', 'gram'"
# every filter's constructor: (name, annotation, default), in order
SIGNATURES = {
    "rvm_rls": [("degree", DEGREE, 4), ("step_size", POSITIVE, 1e-3),
                ("cost_gain", POSITIVE, 20.0), ("lambda_min", "float", 0.85),
                ("lambda_max", "float", 0.95), ("lambda_init", "float", 0.90),
                ("target_noise_variance", f"{POSITIVE} | NoneType", None),
                ("init_window", "int", 100), ("scale_divisor", POSITIVE, 100.0),
                ("outlier_gate", "bool", True),
                ("covariance_init", COVARIANCE_INIT, "residual")],
    "rls": [("forgetting", "float lie in [1e-12, 1]", 0.96), ("degree", DEGREE, 4),
            ("init_window", "int", 100), ("scale_divisor", POSITIVE, 100.0),
            ("covariance_init", COVARIANCE_INIT, "gram")],
    "lms": [("degree", DEGREE, 0), ("mu", "float lie in (0, 2)", 0.3),
            ("eps", POSITIVE, 1e-8), ("init_window", "int", 100),
            ("scale_divisor", POSITIVE, 100.0)],
    "gvff_rls": [("alpha", "float", 1e-3), ("lambda_min", "float", 0.85),
                 ("lambda_max", "float", 0.95), ("lambda_init", "float", 0.90),
                 ("degree", DEGREE, 4), ("init_window", "int", 100),
                 ("scale_divisor", POSITIVE, 100.0),
                 ("covariance_init", COVARIANCE_INIT, "gram")],
    "pf": [("particle_count", "int lie in [2, 1000000]", 500),
           ("process_std", "float lie in [0, inf)", 0.09),
           ("measurement_std", POSITIVE, 0.3),
           ("resample_threshold", "float lie in (0, 1]", 0.5),
           ("seed", "int lie in [0, inf)", 0), ("degree", DEGREE, 4),
           ("init_window", "int", 100), ("scale_divisor", POSITIVE, 100.0)],
}


class TestNormalizedLms:
    def test_zero_residual_leaves_theta(self):
        t = np.arange(30.0)
        y = np.full(30, 3.0)
        f = NormalizedLms(init_window=30).fit(t, y)
        theta = f.theta_.copy()
        f.step(30.0, float(f.theta_[0]))  # measurement equals prediction
        np.testing.assert_array_equal(f.theta_, theta)

    def test_constant_signal_monotone_convergence(self):
        # from a zeroed parameter vector the error contracts geometrically
        t = np.arange(30.0)
        f = NormalizedLms(init_window=30).fit(t, np.full(30, 3.0))
        f.theta_ = np.zeros_like(f.theta_)
        errors = []
        for j in range(30, 50):
            errors.append(abs(f.step(float(j), 3.0) - 3.0))
        assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))

    def test_divergence_raises(self, benchmark_trace_outliers):
        # mu = 5 multiplies the level error by -4 every step; the first
        # non-finite prediction is output 514. fit rejects mu = 5, so it is
        # set on the fitted filter to reach the step guard.
        trace = benchmark_trace_outliers
        f = NormalizedLms().fit(trace.times[:100], trace.measurement[:100])
        f.mu = 5
        with pytest.raises(NumericalDivergenceError,
                           match="prediction became non-finite") as err:
            for t, y in zip(trace.times[100:], trace.measurement[100:]):
                f.step(t, y)
        assert err.value.step_index == 100 + 514

    @pytest.mark.parametrize("bad", [{"mu": 5}, {"mu": -1}, {"mu": np.nan},
                                     {"eps": -1}],
                             ids=["mu=5", "mu=-1", "mu=nan", "eps=-1"])
    def test_parameters_checked_at_fit(self, bad, benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        name = next(iter(bad))
        with pytest.raises(InvalidInputError, match=name):
            NormalizedLms(**bad).fit(trace.times[:100], trace.measurement[:100])

    def test_benchmark_scenario_band(self, benchmark_trace_clean):
        f = NormalizedLms()
        preds = f.run(benchmark_trace_clean.times, benchmark_trace_clean.measurement)
        assert 0.1 <= mse(preds, benchmark_trace_clean.reference[100:]) <= 0.6


class TestStaticRls:
    def test_growing_window_equals_batch_at_lambda_one(self, rng):
        t = np.arange(120.0)
        y = 5.0 - 0.8 * (t / 100.0) ** 2 + rng.normal(0.0, 0.3, 120)
        f = StaticRls(forgetting=1.0, init_window=30)
        f.fit(t[:30], y[:30])
        for j in range(30, 120):
            f.step(t[j], y[j])
            batch = batch_least_squares(t[: j + 1] / 100.0, y[: j + 1], 4)
            np.testing.assert_allclose(f.theta_, batch.theta, atol=1e-6)

    def test_outlier_passes_through(self):
        t = np.arange(30.0)
        y = np.full(30, 5.0)
        f = StaticRls(init_window=30).fit(t, y)
        theta = f.theta_.copy()
        f.step(30.0, 5.0 + 30 * 0.3)  # a 30-sigma spike, no gate to stop it
        assert np.linalg.norm(f.theta_ - theta) > 0

    def test_forgetting_validated(self):
        with pytest.raises(InvalidInputError):
            StaticRls(forgetting=1.5).fit(np.arange(30.0), np.zeros(30))

    def test_worse_than_adaptive_filter_under_outliers(self, benchmark_trace_outliers):
        # Table-II-style check: exact values are configuration folklore,
        # the ordering against the adaptive filter is the contract
        ref = benchmark_trace_outliers.reference[100:]
        rls_mse = mse(StaticRls().run(benchmark_trace_outliers.times,
                                      benchmark_trace_outliers.measurement), ref)
        rvm_mse = mse(RvmRls(target_noise_variance=0.09).run(
            benchmark_trace_outliers.times, benchmark_trace_outliers.measurement), ref)
        assert rvm_mse < rls_mse


class TestGvffRls:
    def test_lambda_drifts_to_max_on_stationary_data(self, rng):
        t = np.arange(1500.0)
        y = 5.0 + rng.normal(0.0, 0.3, 1500)
        f = GvffRls(lambda_init=0.88)
        f.run(t, y)
        assert f.lambda_ > 0.93  # pushed toward the upper clip bound

    def test_lambda_always_within_bounds(self, benchmark_trace_outliers):
        f = GvffRls()
        n0 = f.init_window
        f.fit(benchmark_trace_outliers.times[:n0],
              benchmark_trace_outliers.measurement[:n0])
        for j in range(n0, 800):
            f.step(benchmark_trace_outliers.times[j],
                   benchmark_trace_outliers.measurement[j])
            assert 0.85 <= f.lambda_ <= 0.95

    def test_outliers_break_it(self, benchmark_trace_outliers):
        f = GvffRls()
        preds = f.run(benchmark_trace_outliers.times,
                      benchmark_trace_outliers.measurement)
        assert max_error(preds, benchmark_trace_outliers.reference[100:]) > 5.0


class TestSharedKernel:
    @pytest.mark.parametrize("trace_fixture", ["benchmark_trace_outliers",
                                               "benchmark_trace_clean"])
    def test_rvm_rls_with_frozen_lambda_and_no_gate_is_static_rls(
            self, trace_fixture, request):
        trace = request.getfixturevalue(trace_fixture)
        rls = StaticRls(forgetting=0.9, covariance_init="residual")
        rvm = RvmRls(lambda_min=0.9, lambda_max=0.9, lambda_init=0.9,
                     outlier_gate=False)
        assert np.array_equal(rls.run(trace.times, trace.measurement),
                              rvm.run(trace.times, trace.measurement))

    def test_gain_update_rounds_like_outer_product_form(
            self, benchmark_trace_outliers):
        # reference: the factor update as written before the fast path;
        # RvmRls's "residual" init starts from an F-ordered factor, so both
        # memory orders of L are covered
        trace = benchmark_trace_outliers
        f = RvmRls().fit(trace.times[:100], trace.measurement[:100])
        lam = 0.9
        L = f.L_
        for t in trace.times[100:400]:
            phi = poly_basis(t / f.scale_divisor, f.degree)
            v = L.T @ phi
            vv = float(v @ v)
            denom = lam + vv
            Lv = L @ v
            beta = (1.0 - math.sqrt(lam / denom)) / vv
            L = (L - beta * np.outer(Lv, v)) / math.sqrt(lam)
            assert np.array_equal(f._gain_update(phi, lam), Lv / denom)
            assert np.array_equal(f.L_, L)

    @pytest.mark.parametrize("case", ["prediction", "gain", "parameter"])
    @pytest.mark.parametrize("name", list(RLS_FAMILY))
    def test_divergence_guards(self, name, case, benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        f = RLS_FAMILY[name](0.9).fit(trace.times[:100], trace.measurement[:100])
        y = trace.measurement[100]
        if case == "prediction":
            f.theta_ = np.full_like(f.theta_, np.inf)
        elif case == "gain":
            f.L_ = f.L_ * 1e160
        else:
            y = 1.7e308  # finite, so the clock accepts it; theta overflows
        # the last two cases overflow on purpose, and numpy's overflow
        # warning is not what is under test
        message = {"prediction": "prediction became non-finite",
                   "gain": "gain became non-finite",
                   "parameter": "parameter vector became non-finite"}[case]
        if (name, case) == ("rvm_rls", "parameter"):
            # RvmRls squares the residual into its variance estimate before
            # it absorbs the sample, so that guard fires first
            message = "variance estimate became non-finite"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalDivergenceError, match=message) as err:
            f.step(trace.times[100], y)
        assert err.value.step_index == 100

    @pytest.mark.parametrize("make, at, spike, message", [
        *[pytest.param(RLS_VARIANTS[name], 300, 1.7e308,
                       "parameter vector became non-finite (step_index=300)", id=name)
          for name in ["rls", "rls_residual", "gvff_rls", "gvff_rls_residual"]],
        # these spikes leave finite parameters whose next prediction
        # overflows in _predict's dot, which every filter but pf shares
        *[pytest.param(lambda: StaticRls(degree=2), 300, spike,
                       "prediction became non-finite (step_index=301)",
                       id=f"rls_degree_2_{spike}")
          for spike in [1.7e308, -1.7e308]],
        # GvffRls's sensitivities: this spike leaves a finite psi_ whose dot
        # with a later regressor overflows ...
        pytest.param(GvffRls, 1500, -1e300,
                     "sensitivity vector became non-finite (step_index=1928)",
                     id="gvff_rls_phi_psi"),
        # ... and these overflow the S_ and psi_ update itself
        *[pytest.param(RLS_VARIANTS["gvff_rls_residual"], 101, spike,
                       "sensitivity vector became non-finite (step_index=101)",
                       id=f"gvff_rls_residual_sensitivities_{spike}")
          for spike in [1e308, -1e308]],
    ])
    def test_step_overflow_is_runs_error_under_an_error_filter(self, make, at, spike, message,
                                                               benchmark_trace_outliers):
        # a stream whose caller turns numpy's warnings into errors: the
        # overflow still ends at run's typed guard
        trace = benchmark_trace_outliers
        y = trace.measurement.copy()
        y[at] = spike
        with pytest.raises(NumericalDivergenceError) as expected:
            make().run(trace.times, y)
        f = make().fit(trace.times[:100], y[:100])
        with warnings.catch_warnings(), pytest.raises(NumericalDivergenceError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            for t, value in zip(trace.times[100:], y[100:]):
                f.step(t, value)
        assert str(err.value) == str(expected.value) == message
        assert err.value.step_index == expected.value.step_index

    @pytest.mark.parametrize("name", list(RLS_FAMILY))
    def test_forgetting_below_the_gain_floor_refused_at_fit(self, name,
                                                            benchmark_trace_outliers):
        # lambda >= 1e-12 keeps every gain denominator lambda + phi^T P phi
        # at 1e-12 or more, so the factor update needs no floor of its own
        trace = benchmark_trace_outliers
        message = {"rls": "forgetting must lie in [1e-12, 1], got 1e-13",
                   "gvff_rls": "need 1e-12 <= lambda_min <= lambda_init <= lambda_max <= 1",
                   "rvm_rls": "need 1e-12 <= lambda_min <= lambda_max <= 1"}[name]
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            RLS_FAMILY[name](1e-13).fit(trace.times[:100], trace.measurement[:100])
        f = RLS_FAMILY[name](1e-12).fit(trace.times[:100], trace.measurement[:100])
        f.step(trace.times[100], trace.measurement[100])

    @pytest.mark.parametrize("name", ["rls_residual", "gvff_rls_residual", "rvm_rls"])
    def test_tiny_window_variance_refused_for_a_residual_factor(self, name, rng):
        # a subnormal window variance scales the factor so far down that
        # phi^T P phi underflows to 0, which the factor update divides by
        t = np.arange(100.0)
        y = 1e-161 * rng.standard_normal(100)
        variance = batch_least_squares(t / 100.0, y, 4).residual_variance
        assert 0.0 < variance < np.finfo(float).tiny
        with pytest.raises(InvalidInputError, match="needs a residual variance >= 2.2"):
            RLS_VARIANTS[name]().fit(t, y)
        StaticRls().fit(t, y)  # the "gram" factor does not scale with it

    @pytest.mark.parametrize("name", ["rls_residual", "rvm_rls"])
    def test_refused_refit_leaves_the_fitted_filter_as_it_was(self, name,
                                                              benchmark_trace_outliers):
        # a constant window has residual variance 0, which a "residual"
        # factor refuses: the filter keeps its last fit, and steps from it
        trace = benchmark_trace_outliers
        window = trace.times[:100], trace.measurement[:100]
        f = RLS_VARIANTS[name]().fit(*window)
        before = dict(vars(f))
        with pytest.raises(InvalidInputError, match="needs a residual variance .* got 0.0"):
            f.fit(np.arange(200.0, 300.0), np.zeros(100))
        assert vars(f).keys() == before.keys()
        assert all(vars(f)[key] is value for key, value in before.items())
        twin = RLS_VARIANTS[name]().fit(*window)
        t, y = trace.times[100], trace.measurement[100]
        assert f.step(t, y).hex() == twin.step(t, y).hex()
        assert f.theta_.tobytes() == twin.theta_.tobytes()
        assert f.L_.tobytes() == twin.L_.tobytes()

    def test_a_trace_that_passes_fit_fails_only_by_divergence(
            self, benchmark_trace_outliers, benchmark_trace_clean):
        # on finite, strictly increasing samples whose window fit accepts,
        # run raises nothing but a NumericalDivergenceError at a post-window
        # step; the probes square past the float range in the window and
        # after it, and shrink a window's variance below the normal floats;
        # numpy's overflow warnings on the way are not what is under test
        probes = {"window_spike": (benchmark_trace_outliers, 50, 1e200),
                  "step_spike": (benchmark_trace_clean, 300, 1e160)}
        traces = {}
        for probe, (trace, index, value) in probes.items():
            traces[probe] = (trace.times, trace.measurement.copy())
            traces[probe][1][index] = value
        traces["tiny_window"] = (benchmark_trace_clean.times,
                                 benchmark_trace_clean.measurement * 1e-161)
        failures = []
        for (name, make), (probe, (times, y)) in itertools.product(RLS_VARIANTS.items(),
                                                                 traces.items()):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    make().fit(times[:100], y[:100])
                except InvalidInputError:
                    continue
                try:
                    predictions = make().run(times, y)
                except NumericalDivergenceError as exc:
                    if exc.step_index < 100:
                        failures.append((name, probe, repr(exc)))
                except Exception as exc:  # anything else breaks the invariant
                    failures.append((name, probe, repr(exc)))
                else:
                    if not np.isfinite(predictions).all():
                        failures.append((name, probe, "non-finite prediction"))
        assert failures == []


class TestBootstrapParticleFilter:
    def test_degenerate_consensus(self):
        t = np.arange(30.0)
        f = BootstrapParticleFilter(process_std=0.0, seed=0, init_window=30)
        f.fit(t, np.full(30, 7.0))
        f.particles_ = [4.2] * f.particle_count
        assert f.step(30.0, 4.2) == pytest.approx(4.2, abs=1e-12)

    def test_weights_normalized_every_step(self, benchmark_trace_outliers):
        f = BootstrapParticleFilter(seed=3)
        n0 = f.init_window
        f.fit(benchmark_trace_outliers.times[:n0],
              benchmark_trace_outliers.measurement[:n0])
        for j in range(n0, n0 + 200):
            f.step(benchmark_trace_outliers.times[j],
                   benchmark_trace_outliers.measurement[j])
            assert sum(f.weights_) == pytest.approx(1.0, abs=1e-9)

    def test_far_measurement_flags_degenerate_step(self):
        t = np.arange(30.0)
        f = BootstrapParticleFilter(seed=0, init_window=30)
        f.fit(t, np.full(30, 0.0))
        f.step(30.0, 1e9)
        assert f.degenerate_steps_ == 1
        assert sum(f.weights_) == pytest.approx(1.0, abs=1e-9)

    def test_divergence_raises(self, benchmark_trace_outliers):
        # a finite process_std whose random walk overflows the particles
        f = BootstrapParticleFilter(process_std=1e308, particle_count=20, seed=0)
        with pytest.raises(NumericalDivergenceError,
                           match="prediction became non-finite") as err:
            f.run(benchmark_trace_outliers.times[:300],
                  benchmark_trace_outliers.measurement[:300])
        assert err.value.step_index == f.step_index_ >= 100

    def test_seeded_determinism(self, benchmark_trace_outliers):
        runs = []
        for _ in range(2):
            f = BootstrapParticleFilter(seed=11)
            runs.append(f.run(benchmark_trace_outliers.times[:600],
                              benchmark_trace_outliers.measurement[:600]))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_benchmark_scenario_band(self, benchmark_trace_clean):
        f = BootstrapParticleFilter(seed=0)
        preds = f.run(benchmark_trace_clean.times, benchmark_trace_clean.measurement)
        assert 0.1 <= mse(preds, benchmark_trace_clean.reference[100:]) <= 0.6

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            BootstrapParticleFilter(particle_count=1).fit(
                np.arange(30.0), np.zeros(30))
        with pytest.raises(InvalidInputError):
            BootstrapParticleFilter(measurement_std=0.0).fit(
                np.arange(30.0), np.zeros(30))
        for bad in ({"particle_count": 100.0}, {"process_std": np.nan},
                    {"process_std": np.inf}, {"measurement_std": np.nan},
                    {"measurement_std": np.inf},
                    # a finite integer whose square is beyond the float range
                    {"measurement_std": 10**300}):
            with pytest.raises(InvalidInputError, match=next(iter(bad))):
                BootstrapParticleFilter(**bad).fit(np.arange(100.0), np.zeros(100))

    # checked alone: a fit with an unchecked count would build the particles
    @pytest.mark.parametrize("count", [MAX_PARTICLE_COUNT + 1, 10**15, 10**30],
                             ids=["1000001", "10**15", "10**30"])
    def test_particle_count_bounded(self, count):
        with pytest.raises(InvalidInputError, match="particle_count must lie in"):
            BootstrapParticleFilter(particle_count=count)._validate_params()
        BootstrapParticleFilter(particle_count=MAX_PARTICLE_COUNT)._validate_params()

    @pytest.mark.parametrize("seed, shown", [(-1, "-1"), (-10**5000, "<int of 5001 digits>")],
                             ids=["-1", "-10**5000"])
    def test_negative_seed_rejected(self, seed, shown, benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        message = re.escape(f"seed must lie in [0, inf), got {shown}")
        with pytest.raises(InvalidInputError, match=message):
            BootstrapParticleFilter(seed=seed).fit(np.arange(100.0), np.zeros(100))
        with pytest.raises(InvalidInputError, match=message):
            BootstrapParticleFilter(seed=seed).run(trace.times, trace.measurement)


class TestInterfaceUniformity:
    @pytest.mark.parametrize("bad", [0.0, -100.0, np.nan, np.inf])
    @pytest.mark.parametrize("make", ALL_FILTERS, ids=FILTER_IDS)
    def test_bad_scale_divisor_rejected_at_fit(self, make, bad,
                                               benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        f = make().set_params(scale_divisor=bad)
        with pytest.raises(InvalidInputError, match="scale_divisor"):
            f.fit(trace.times[:f.init_window], trace.measurement[:f.init_window])

    @pytest.mark.parametrize("param", ["degree", "init_window"])
    @pytest.mark.parametrize("make", ALL_FILTERS, ids=FILTER_IDS)
    def test_float_integer_param_rejected(self, make, param,
                                          benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        f = make()
        f.set_params(**{param: float(getattr(f, param))})
        with pytest.raises(InvalidInputError, match=param):
            f.run(trace.times, trace.measurement)
        with pytest.raises(InvalidInputError, match=param):
            f.fit(trace.times[:100], trace.measurement[:100])

    @pytest.mark.parametrize("make", ALL_FILTERS, ids=FILTER_IDS)
    def test_overflowing_scaled_time_rejected_at_fit(self, make):
        # finite times over a tiny divisor: the window's scaled times overflow
        f = make().set_params(scale_divisor=1e-300)
        with pytest.raises(InvalidInputError, match="samples must be finite"):
            f.fit(np.arange(100.0) + 1e10, np.zeros(100))

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("make", ALL_FILTERS, ids=FILTER_IDS)
    def test_fit_requires_exactly_init_window(self, make, extra,
                                              benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        f = make()
        n = f.init_window + extra
        with pytest.raises(InvalidInputError,
                           match=f"exactly init_window=100 samples, got {n}"):
            f.fit(trace.times[:n], trace.measurement[:n])
        assert not hasattr(f, "is_fitted_")

    # numpy would parse digit strings and bytes as numbers
    @pytest.mark.parametrize("times, measurements", [
        (None, None), ("ab", "cd"), (["a"] * 100, [0.0] * 100),
        ([10**400] * 100, [0.0] * 100),
        ([str(v) for v in range(100)], ["0"] * 100),
        ([str(v).encode() for v in range(100)], [0.0] * 100),
        (list(range(100)), [0.0] * 99 + ["0"]),
    ], ids=["None", "strings", "letters", "10**400", "digit_strings", "bytes", "one_string"])
    @pytest.mark.parametrize("make", ALL_FILTERS, ids=FILTER_IDS)
    def test_malformed_trace_rejected(self, make, times, measurements):
        message = "times and measurements must be"
        with pytest.raises(InvalidInputError, match=message):
            make().fit(times, measurements)
        with pytest.raises(InvalidInputError, match=message):
            make().run(times, measurements)
        outcomes = make().run_lockstep_detailed([times, times], [measurements, measurements])
        assert [type(out) for out in outcomes] == [InvalidInputError] * 2
        assert all(str(out).startswith(message) for out in outcomes)

    @pytest.mark.parametrize("value", ["a", None, pytest.param(10**400, id="10**400"),
                                       pytest.param("100.5", id="digits"),
                                       pytest.param(b"1", id="bytes")])
    @pytest.mark.parametrize("make", ALL_FILTERS, ids=FILTER_IDS)
    def test_malformed_sample_rejected_by_step(self, make, value, benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        f = make().fit(trace.times[:100], trace.measurement[:100])
        for t, y in [(value, 1.0), (trace.times[100], value)]:
            with pytest.raises(InvalidInputError,
                               match="time and measurement must be finite numbers"):
                f.step(t, y)
        assert f.last_time_ == trace.times[99]

    @pytest.mark.parametrize("value", [None, 5], ids=["None", "5"])
    @pytest.mark.parametrize("make", ALL_FILTERS, ids=FILTER_IDS)
    def test_lockstep_needs_sequences(self, make, value):
        with pytest.raises(InvalidInputError, match="must be sequences"):
            make().run_lockstep_detailed(value, value)

    def test_one_prediction_per_post_init_sample(self, benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        for make in ALL_FILTERS:
            f = make()
            preds = f.run(trace.times[:500], trace.measurement[:500])
            assert len(preds) == 500 - f.init_window

    def test_get_set_params_roundtrip(self):
        for make in ALL_FILTERS:
            f = make()
            params = f.get_params()
            g = type(f)(**params)
            assert g.get_params() == params
            f.set_params(init_window=60)
            assert f.get_params()["init_window"] == 60
        with pytest.raises(InvalidInputError):
            RvmRls().set_params(nonsense=1)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_constructor_signature_pinned(self, kind):
        # names, order, defaults and annotations, rules spelled by _spell
        params = inspect.signature(FILTER_KINDS[kind]).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        assert [(p.name, _spell(p.annotation), p.default) for p in params] == SIGNATURES[kind]

    @pytest.mark.parametrize("make", ALL_FILTERS, ids=FILTER_IDS)
    def test_copy_carries_parameters_not_fitted_state(self, make, benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        f = make().set_params(init_window=60)
        f.fit(trace.times[:60], trace.measurement[:60])
        copy = f._copy()
        assert type(copy) is type(f) and copy is not f
        assert copy.get_params() == f.get_params()
        assert [name for name in vars(copy) if name.endswith("_")] == []
        assert f.is_fitted_ and copy != f

