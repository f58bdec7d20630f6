import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from terrafilter import (InvalidInputError, NotFittedError, NumericalDivergenceError, RvmRls,
                         ScenarioConfig, batch_least_squares, mse, synthesize,
                         variance_cost)
from terrafilter.base import _Rows
from terrafilter.regression import poly_basis


class TestVarianceCost:
    def test_matched_variance_is_stationary(self):
        s2, cost, grad = variance_cost(0.09, math.sqrt(0.09), 0.9, 20.0, 0.09)
        assert s2 == pytest.approx(0.09)
        assert cost == pytest.approx(0.0, abs=1e-18)
        assert grad == pytest.approx(0.0, abs=1e-18)

    def test_hand_evaluation(self):
        s2, cost, grad = variance_cost(0.09, 0.0, 0.9, 20.0, 0.09)
        assert s2 == pytest.approx(0.081)
        assert cost == pytest.approx(20.0 * 0.009**2)
        assert grad == pytest.approx(2.0 * 20.0 * (-0.009) * 0.09)

    def test_finite_difference_oracle(self):
        s2p, r, lam, c, tgt = 0.2, 0.5, 0.88, 20.0, 0.09
        _, _, grad = variance_cost(s2p, r, lam, c, tgt)
        h = 1e-6
        cost_hi = variance_cost(s2p, r, lam + h, c, tgt)[1]
        cost_lo = variance_cost(s2p, r, lam - h, c, tgt)[1]
        fd = (cost_hi - cost_lo) / (2 * h)
        assert abs(grad - fd) < 1e-4 * max(abs(grad), 1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            variance_cost(np.nan, 0.1, 0.9, 20.0, 0.09)

    @given(
        st.floats(1e-6, 1.0), st.floats(-3.0, 3.0),
        st.floats(0.01, 1.0), st.floats(1e-6, 1.0),
    )
    def test_convex_combination_bound(self, s2p, r, lam, tgt):
        s2n, cost, _ = variance_cost(s2p, r, lam, 20.0, tgt)
        lo = min(s2p, r * r) - 1e-12
        hi = max(s2p, r * r) + 1e-12
        assert lo <= s2n <= hi
        assert cost >= 0.0


def _cubic_window(n=30):
    t = np.arange(float(n))
    tau = t / 100.0
    y = 1.0 + 2.0 * tau - 0.5 * tau**2 + 0.1 * tau**3
    return t, y


class TestInit:
    def test_noiseless_cubic(self):
        t, y = _cubic_window()
        f = RvmRls(init_window=30).fit(t, y)
        assert f.sigma2_hat_ == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(f.theta_, [1, 2, -0.5, 0.1, 0], atol=1e-6)

    def test_lambda_clipped_to_upper_bound(self):
        t, y = _cubic_window()
        f = RvmRls(init_window=30, lambda_init=0.99).fit(t, y)
        assert f.lambda_ == 0.95

    @pytest.mark.parametrize("lam", [-1.0, 2.0])
    def test_finite_lambda_init_out_of_range_is_clipped(self, lam):
        t, y = _cubic_window()
        f = RvmRls(init_window=30, lambda_init=lam).fit(t, y)
        assert f.lambda_ == (0.85 if lam < 0.85 else 0.95)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_init_rejected_at_fit(self, lam):
        t, y = _cubic_window()
        with pytest.raises(InvalidInputError, match="lambda_init must be finite"):
            RvmRls(init_window=30, lambda_init=lam).fit(t, y)

    def test_sigma2_target_sampling_band(self):
        # chi^2-scaled estimate with 25 degrees of freedom stays inside the
        # [0.03, 0.27] band for sigma^2 = 0.09 across many seeds
        for seed in range(50):
            trace = synthesize(ScenarioConfig(seed=seed, clean_prefix=30))
            f = RvmRls(init_window=30)
            f.fit(trace.times[:30], trace.measurement[:30])
            assert 0.03 <= f.sigma2_target_ <= 0.27

    def test_override_wins(self):
        t, y = _cubic_window()
        f = RvmRls(init_window=30, target_noise_variance=0.5).fit(t, y)
        assert f.sigma2_target_ == 0.5

    def test_window_length_enforced(self):
        t, y = _cubic_window()
        with pytest.raises(InvalidInputError):
            RvmRls(init_window=40).fit(t, y)

    def test_step_before_fit(self):
        with pytest.raises(NotFittedError):
            RvmRls().step(0.0, 0.0)


class TestStep:
    def _fitted(self, **kw):
        t, y = _cubic_window()
        kw.setdefault("init_window", 30)
        kw.setdefault("target_noise_variance", 0.09)
        return RvmRls(**kw).fit(t, y)

    def test_rejection_freezes_theta(self):
        f = self._fitted()
        theta_before = f.theta_.copy()
        out = f.step_detailed(30.0, 50.0)  # residual way past 3 sigma
        assert out.rejected
        assert abs(out.residual) > 3.0 * math.sqrt(0.09)
        assert np.all(f.theta_ == theta_before)  # bit-for-bit

    def test_skip_mode_leaves_state_untouched(self):
        f = self._fitted()
        L_before = f.L_.copy()
        lam_before, sig_before = f.lambda_, f.sigma2_hat_
        out = f.step_detailed(30.0, 50.0)
        assert out.rejected
        assert f.lambda_ == lam_before
        assert f.sigma2_hat_ == sig_before
        np.testing.assert_array_equal(f.L_, L_before)

    def test_gate_is_fitted_state(self):
        # set_params(outlier_gate=False) takes effect at the next fit, in
        # step_detailed and in the lockstep, as target_noise_variance does
        filters = [self._fitted() for _ in range(3)]
        for f in filters:
            f.set_params(outlier_gate=False)
        s = _Rows()
        s.failed = np.zeros(2, dtype=bool)
        filters[0]._stack_state(s, filters[:2])
        phi = np.tile(poly_basis(30.0 / 100.0, 4), (2, 1))
        _, rejected, *_ = filters[0]._lockstep_step(s, phi, 50.0 - phi @ filters[0].theta_)
        assert rejected.tolist() == [True, True]
        assert filters[2].step_detailed(30.0, 50.0).rejected
        filters[2].fit(*_cubic_window())
        assert not filters[2].step_detailed(30.0, 50.0).rejected

    def test_constant_signal_convergence(self):
        t = np.arange(100.0)
        y = np.full(100, 5.0)
        f = RvmRls(init_window=30, target_noise_variance=0.09)
        preds = f.run(t, y)
        assert abs(preds[49] - 5.0) < 0.01

    def test_time_must_increase(self):
        f = self._fitted()
        f.step(30.0, 1.0)
        with pytest.raises(InvalidInputError):
            f.step(30.0, 1.0)

    def test_non_finite_measurement(self):
        f = self._fitted()
        with pytest.raises(InvalidInputError):
            f.step(31.0, np.inf)

    def test_variance_overflow_is_a_divergence_at_its_step(self, benchmark_trace_clean):
        # the spike passes the disabled gate and its square overflows the
        # variance estimate: a divergence at that step, not bad input later
        trace = benchmark_trace_clean
        y = trace.measurement.copy()
        y[300] = 1e160
        with pytest.raises(NumericalDivergenceError,
                           match=r"variance estimate became non-finite \(step_index=300\)"):
            RvmRls(outlier_gate=False).run(trace.times, y)

    def test_batch_equivalence_window(self, rng):
        # lambda pinned at 1, gate off: samples 31..60 reproduce the batch
        # fit over samples 1..60
        t = np.arange(60.0)
        y = 20.0 + 0.5 * (t / 100.0) + rng.normal(0.0, 0.3, 60)
        f = RvmRls(init_window=30, lambda_min=1.0, lambda_max=1.0,
                   lambda_init=1.0, outlier_gate=False, covariance_init="gram")
        f.run(t, y)
        batch = batch_least_squares(t / 100.0, y, 4)
        np.testing.assert_allclose(f.theta_, batch.theta, atol=1e-6)


class TestRun:
    def test_boundary_empty_output(self):
        t, y = _cubic_window()
        columns = RvmRls(init_window=30).run_detailed(t, y)
        assert list(columns) == ["prediction", "residual", "rejected", "lambda",
                                 "sigma2_hat"]
        assert all(len(column) == 0 for column in columns.values())
        assert columns["rejected"].dtype == bool

    def test_benchmark_scenario_accuracy(self, benchmark_trace_clean):
        f = RvmRls(target_noise_variance=0.09)
        preds = f.run(benchmark_trace_clean.times, benchmark_trace_clean.measurement)
        assert mse(preds, benchmark_trace_clean.reference[100:]) < 0.05

    def test_paired_me_exact_when_only_rejected_samples_perturbed(self):
        # construct the pair by bumping exactly the samples the clean run
        # already rejects; both runs then gate the same indices and their
        # states never diverge
        clean = synthesize(ScenarioConfig(name="c", outlier_fraction=0.0, seed=3))
        f = RvmRls(target_noise_variance=0.09)
        base = f.run_detailed(clean.times, clean.measurement)
        rejected = np.flatnonzero(base["rejected"])
        assert len(rejected), "expected at least one natural rejection"
        bumped = clean.measurement.copy()
        bumped[100 + rejected] += 7.0
        f2 = RvmRls(target_noise_variance=0.09)
        other = f2.run_detailed(clean.times, bumped)
        ref = clean.reference[100:]
        me_base = np.abs(base["prediction"] - ref).max()
        me_other = np.abs(other["prediction"] - ref).max()
        assert me_other == pytest.approx(me_base, abs=1e-9)

    def test_lambda_always_clipped(self, benchmark_trace_outliers):
        f = RvmRls(target_noise_variance=0.09)
        lams = f.run_detailed(benchmark_trace_outliers.times,
                              benchmark_trace_outliers.measurement)["lambda"]
        assert np.all((lams >= 0.85) & (lams <= 0.95))

    def test_detailed_columns_are_the_step_records(self, benchmark_trace_outliers):
        times = benchmark_trace_outliers.times[:300]
        measurements = benchmark_trace_outliers.measurement[:300]
        columns = RvmRls(target_noise_variance=0.09).run_detailed(times, measurements)
        f = RvmRls(target_noise_variance=0.09).fit(times[:100], measurements[:100])
        records = [f.step_detailed(t, y) for t, y in zip(times[100:], measurements[100:])]
        assert columns["rejected"].any()
        for name, field in (("prediction", "prediction"), ("residual", "residual"),
                            ("rejected", "rejected"), ("lambda", "lambda_after"),
                            ("sigma2_hat", "sigma2_hat_after")):
            assert columns[name].tolist() == [getattr(r, field) for r in records], name

    def test_sigma2_recursion_convex_bound_on_stream(self, benchmark_trace_outliers):
        f = RvmRls(target_noise_variance=0.09)
        n0 = f.init_window
        f.fit(benchmark_trace_outliers.times[:n0],
              benchmark_trace_outliers.measurement[:n0])
        for j in range(n0, 600):
            before = f.sigma2_hat_
            out = f.step_detailed(benchmark_trace_outliers.times[j],
                                  benchmark_trace_outliers.measurement[j])
            if out.rejected:  # a gated sample leaves the estimate as it was
                assert out.sigma2_hat_after == before
                continue
            lo = min(before, out.residual**2) - 1e-12
            hi = max(before, out.residual**2) + 1e-12
            assert lo <= out.sigma2_hat_after <= hi

    def test_covariance_stays_symmetric_positive(self, benchmark_trace_outliers):
        f = RvmRls(target_noise_variance=0.09)
        n0 = f.init_window
        f.fit(benchmark_trace_outliers.times[:n0],
              benchmark_trace_outliers.measurement[:n0])
        for j in range(n0, len(benchmark_trace_outliers.times)):
            f.step(benchmark_trace_outliers.times[j],
                   benchmark_trace_outliers.measurement[j])
            if j % 200 == 0:
                P = f.L_ @ f.L_.T
                assert np.abs(P - P.T).max() <= 1e-9 * max(np.abs(P).max(), 1e-30)
                assert np.all(np.diag(P) > 0)
                assert np.linalg.eigvalsh(P).min() >= -1e-9 * np.trace(P)

    def test_deterministic(self, benchmark_trace_outliers):
        runs = []
        for _ in range(2):
            f = RvmRls(target_noise_variance=0.09)
            runs.append(f.run(benchmark_trace_outliers.times,
                              benchmark_trace_outliers.measurement))
        np.testing.assert_array_equal(runs[0], runs[1])
