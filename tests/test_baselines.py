import numpy as np
import pytest

from terrafilter import (BootstrapParticleFilter, GvffRls, InvalidInputError,
                         NormalizedLms, RvmRls, StaticRls,
                         batch_least_squares, max_error, mse)

ALL_FILTERS = [
    lambda: RvmRls(target_noise_variance=0.09),
    lambda: StaticRls(),
    lambda: NormalizedLms(),
    lambda: GvffRls(),
    lambda: BootstrapParticleFilter(seed=0),
]


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


class TestInterfaceUniformity:
    @pytest.mark.parametrize("bad", [0.0, -100.0, np.nan, np.inf])
    @pytest.mark.parametrize("make", ALL_FILTERS,
                             ids=["rvm_rls", "rls", "lms", "gvff_rls", "pf"])
    def test_bad_scale_divisor_rejected_at_fit(self, make, bad,
                                               benchmark_trace_outliers):
        trace = benchmark_trace_outliers
        f = make().set_params(scale_divisor=bad)
        with pytest.raises(InvalidInputError, match="scale_divisor"):
            f.fit(trace.times[:f.init_window], trace.measurement[:f.init_window])

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
