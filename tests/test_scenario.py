import math

import numpy as np
import pytest

from terrafilter import (InvalidInputError, ScenarioConfig, TerrainParams,
                         synthesize, terrain_height, write_trace_csv)


class TestTerrainHeight:
    def test_zero_phase_at_origin(self):
        assert terrain_height(0.0) == 0.0

    def test_envelope_center_value(self):
        # amplitude is exactly 10 at the envelope center
        assert terrain_height(1000.0) == pytest.approx(10.0 * math.sin(25.0))
        assert terrain_height(1000.0) == pytest.approx(-1.3235, abs=5e-4)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
    def test_envelope_bound(self, k):
        for sign in (-1, 1):
            t = 1000.0 + sign * k * 400.0
            assert abs(terrain_height(t)) <= 10.0 * math.exp(-(k**2) / 2) + 1e-12

    def test_vectorized(self):
        t = np.array([0.0, 500.0, 1000.0])
        H = terrain_height(t)
        assert H.shape == (3,)
        assert H[0] == 0.0

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            TerrainParams(envelope_sigma=0.0)


class TestSynthesize:
    def test_clean_scenario_is_exact(self):
        cfg = ScenarioConfig(noise_variance=0.0, outlier_fraction=0.0, seed=9)
        trace = synthesize(cfg)
        np.testing.assert_array_equal(trace.measurement, trace.reference)
        np.testing.assert_array_equal(trace.reference,
                                      trace.terrain + cfg.clearance)
        assert not trace.outlier_mask.any()

    def test_outlier_count_band_and_prefix(self):
        cfg = ScenarioConfig(seed=4)
        trace = synthesize(cfg)
        sigma = math.sqrt(cfg.noise_variance)
        assert trace.outlier_mask.sum() == round(0.10 * cfg.sample_count)
        mags = np.abs(trace.injected_outliers[trace.outlier_mask])
        assert np.all(mags > 3.0 * sigma)
        assert np.all(mags <= 30.0 * sigma)
        assert not trace.outlier_mask[:cfg.clean_prefix].any()
        assert np.all(trace.injected_outliers[~trace.outlier_mask] == 0)

    def test_measurement_decomposition(self):
        trace = synthesize(ScenarioConfig(seed=2))
        noise = trace.measurement - trace.reference - trace.injected_outliers
        clean_noise = noise[~trace.outlier_mask]
        assert 0.08 <= clean_noise.var() <= 0.10

    def test_seed_determinism(self):
        a = synthesize(ScenarioConfig(seed=13))
        b = synthesize(ScenarioConfig(seed=13))
        np.testing.assert_array_equal(a.measurement, b.measurement)
        np.testing.assert_array_equal(a.outlier_mask, b.outlier_mask)

    def test_noise_shared_between_paired_scenarios(self):
        with_out = synthesize(ScenarioConfig(seed=6))
        without = synthesize(ScenarioConfig(outlier_fraction=0.0, seed=6))
        clean = ~with_out.outlier_mask
        np.testing.assert_array_equal(with_out.measurement[clean],
                                      without.measurement[clean])
        np.testing.assert_allclose(
            with_out.measurement - with_out.injected_outliers,
            without.measurement, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            ScenarioConfig(sample_count=0)
        with pytest.raises(InvalidInputError):
            ScenarioConfig(outlier_fraction=1.5)
        with pytest.raises(InvalidInputError):
            ScenarioConfig(outlier_band=(-2.0, 2.0))
        with pytest.raises(InvalidInputError):
            synthesize(ScenarioConfig(noise_variance=0.0))


class TestTraceExport:
    def test_header_and_shape(self, tmp_path):
        trace = synthesize(ScenarioConfig(sample_count=150, clean_prefix=30,
                                          seed=0))
        write_trace_csv(trace, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "t,H,p,z,outlier"
        assert len(lines) == 151

    def test_full_precision_roundtrip(self, tmp_path):
        trace = synthesize(ScenarioConfig(sample_count=150, clean_prefix=30,
                                          seed=1))
        write_trace_csv(trace, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")[1:]
        z = np.array([float(line.split(",")[3]) for line in lines])
        np.testing.assert_array_equal(z, trace.measurement)
        flags = np.array([int(line.split(",")[4]) for line in lines], dtype=bool)
        np.testing.assert_array_equal(flags, trace.outlier_mask)
