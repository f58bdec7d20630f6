import contextlib
import dataclasses
import math
import os
import re

import numpy as np
import pytest

from terrafilter import (InvalidInputError, ScenarioConfig, TerrainParams,
                         synthesize, terrain_height, write_trace_csv)
from terrafilter.scenario import ScenarioTrace, format_column, write_columns


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "a", None,
                                   pytest.param(10**400, id="10**400"), [0.0, math.nan],
                                   pytest.param("1", id="digits"),
                                   pytest.param(b"1", id="bytes")])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(InvalidInputError, match="t must be finite numbers"):
            terrain_height(t)

    @pytest.mark.parametrize("name", ["amplitude", "center", "envelope_sigma",
                                      "omega", "phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="10**400"), "a"])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            TerrainParams(**{name: value})


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

    @pytest.mark.parametrize("name, value", [
        ("clearance", math.inf), ("clearance", np.float32("nan")),
        ("noise_variance", math.nan), ("noise_variance", math.inf),
        ("outlier_fraction", math.nan),
        ("outlier_band", (math.nan, 30.0)), ("outlier_band", (-30.0, math.inf)),
        ("clearance", "a"), ("outlier_fraction", None), ("outlier_band", (None, 30.0)),
        pytest.param("noise_variance", 10**400, id="noise_variance-10**400"),
    ])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("sample_count", 2000.5), ("clean_prefix", 100.5), ("seed", 1.5),
        ("sample_count", True), ("seed", None),
    ])
    def test_non_integer_field_rejected(self, name, value):
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("value", [None, (-30.0,), [-30.0, 30.0]])
    def test_outlier_band_must_be_two_numbers(self, value):
        with pytest.raises(InvalidInputError, match="outlier_band must be 2 numbers"):
            ScenarioConfig(outlier_band=value)

    # rejected before anything is allocated; a count between 10**7 and
    # 10**14 is never tried, since an unbounded build would really allocate it
    @pytest.mark.parametrize("count", [1_000_001, 10**15, 10**30])
    def test_sample_count_bounded(self, count):
        with pytest.raises(InvalidInputError, match="sample_count must lie in"):
            ScenarioConfig(sample_count=count)
        assert ScenarioConfig(sample_count=1_000_000, clean_prefix=0,
                              outlier_fraction=0.0).sample_count == 1_000_000

    @pytest.mark.parametrize("terrain", [
        dict(omega=1e308), dict(center=1e200), dict(envelope_sigma=1e200),
        dict(envelope_sigma=1e-200),
        dict(amplitude=1e308, center=100.0, omega=0.0, phase=math.pi / 2),
    ])
    def test_overflowing_terrain_rejected_when_built(self, terrain):
        with pytest.raises(InvalidInputError, match="terrain plus clearance overflows"):
            ScenarioConfig(sample_count=200, clean_prefix=100, clearance=1.7e308,
                           terrain=TerrainParams(**terrain))

    def test_overflowing_terrain_message_names_its_cause(self):
        # the README's example: the sample times are finite, so
        # terrain_height's own check on t never hides the overflow's cause
        message = ("terrain plus clearance overflows over the sample times "
                   "(overflow encountered in multiply)")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(terrain=TerrainParams(omega=1e308))

    @pytest.mark.parametrize("fields", [
        dict(noise_variance=1e300, outlier_band=(-1e300, 1e300)),
        dict(noise_variance=1.0, outlier_band=(-30.0, 1.7e308), clearance=1e308),
    ])
    def test_overflowing_outliers_rejected_when_built(self, fields):
        with pytest.raises(InvalidInputError, match="the largest outlier"):
            ScenarioConfig(sample_count=20, clean_prefix=5, **fields)
        # without outliers there is nothing to overflow
        ScenarioConfig(sample_count=20, clean_prefix=5, outlier_fraction=0.0, **fields)

    def test_overflowing_outliers_rejected_by_synthesize(self):
        # the bound at build time is on the largest outlier; synthesize
        # checks the measurements themselves, so it still rejects a config
        # that got past the bound
        config = ScenarioConfig(sample_count=20, clean_prefix=5)
        object.__setattr__(config, "noise_variance", 1e300)
        object.__setattr__(config, "outlier_band", (-1e300, 1e300))
        with pytest.raises(InvalidInputError, match="measurement overflows"):
            synthesize(config)

    @pytest.mark.parametrize("fraction, prefix, ok", [
        (0.95, 100, True),     # 1,900 outliers in the 1,900 samples after the prefix
        (0.951, 100, False),   # 1,902 of them
        (1.0, 100, False),
        (1.0, 0, True),
    ])
    def test_outlier_count_fits_after_clean_prefix(self, fraction, prefix, ok):
        kwargs = dict(sample_count=2000, clean_prefix=prefix, outlier_fraction=fraction)
        if not ok:
            with pytest.raises(InvalidInputError, match="more outliers than samples"):
                ScenarioConfig(**kwargs)
            return
        trace = synthesize(ScenarioConfig(**kwargs))
        assert not trace.outlier_mask[:prefix].any()
        assert trace.outlier_mask.sum() == round(fraction * 2000)


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

    @pytest.mark.parametrize("value", [None, {}, "trace"], ids=["None", "dict", "str"])
    def test_arguments_must_be_a_config_and_a_trace(self, value, tmp_path):
        with pytest.raises(InvalidInputError, match="config must be a ScenarioConfig"):
            synthesize(value)
        with pytest.raises(InvalidInputError, match="trace must be a ScenarioTrace"):
            write_trace_csv(value, tmp_path / "trace.csv")

    def test_malformed_trace_rejected_before_the_file_is_opened(self, tmp_path):
        with pytest.raises(InvalidInputError, match="times must be a ndarray, got NoneType"):
            write_trace_csv(ScenarioTrace(*[None] * 6, config=ScenarioConfig()),
                            tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("column", [np.arange(4.0), np.arange(2.0), np.ones((3, 1)),
                                        np.array(["1", "2", "3"]), [[1.0], [2.0, 3.0], []],
                                        np.ones(3, dtype=complex)],
                             ids=["longer", "shorter", "2-D", "strings", "ragged", "complex"])
    def test_bad_column_rejected_before_the_file_is_opened(self, column, tmp_path):
        trace = synthesize(ScenarioConfig(sample_count=3, clean_prefix=0,
                                          outlier_fraction=0.0))
        # replace builds a new trace, which checks itself
        with pytest.raises(InvalidInputError, match="terrain must be a"):
            write_trace_csv(dataclasses.replace(trace, terrain=column), tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_fields_cannot_be_reassigned(self):
        trace = synthesize(ScenarioConfig(sample_count=3, clean_prefix=0,
                                          outlier_fraction=0.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.measurement = np.array([1.0, 2.0])

    def test_compares_and_hashes_by_identity(self):
        # a generated __eq__ would compare the arrays as a tuple, which
        # numpy refuses to turn into a bool
        config = ScenarioConfig(sample_count=10, clean_prefix=0, outlier_fraction=0.0)
        a, b = synthesize(config), synthesize(config)
        assert a == a and a != b
        assert a in [a, b] and b not in [a]
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_integer_path_rejected(self):
        # open() takes an integer as a file descriptor, writes to it and
        # closes it: True is stdout
        trace = synthesize(ScenarioConfig(sample_count=10, clean_prefix=0,
                                          outlier_fraction=0.0))
        read_end, write_end = os.pipe()
        try:
            for path in (write_end, np.int64(write_end), True):
                with pytest.raises(InvalidInputError, match="path must be a file path"):
                    write_trace_csv(trace, path)
            os.fstat(write_end)  # still open
        finally:
            os.close(read_end)
            with contextlib.suppress(OSError):
                os.close(write_end)


class TestFormatColumn:
    @pytest.mark.parametrize("column, text", [
        (np.array([0.1, -0.0, 1e300, 2.5]),
         ["0.10000000000000001", "-0", "1.0000000000000001e+300", "2.5"]),
        (np.array([3, -7, 0, 2**40]), ["3", "-7", "0", "1099511627776"]),
        (np.array([True, False, False, True]), ["1", "0", "0", "1"]),
        # 2**53 + 1 has no float64, so it must not pass through one
        (np.array([2**53 + 1, 2**62 + 1], dtype=np.int64),
         ["9007199254740993", "4611686018427387905"]),
    ], ids=["float", "int", "bool", "int64-above-2**53"])
    def test_text_of_each_value(self, column, text):
        assert format_column(column) == text


class TestWriteColumns:
    def test_rows_join_the_text_of_each_column(self, tmp_path):
        columns = [np.array([0.1, -0.0]), np.array([3, -7]), np.array([True, False])]
        write_columns(tmp_path / "x.csv", ["float", "int", "bool"],
                      [format_column(c) for c in columns])
        assert (tmp_path / "x.csv").read_bytes() == (
            b"float,int,bool\n0.10000000000000001,3,1\n-0,-7,0\n")

    def test_large_integer_beside_a_float_prints_exactly(self, tmp_path):
        big = np.array([2**53 + 1, 2**62 + 1], dtype=np.int64)
        write_columns(tmp_path / "x.csv", ["n", "x"],
                      [format_column(big), format_column(np.array([0.5, 1.5]))])
        assert (tmp_path / "x.csv").read_text() == (
            f"n,x\n{2**53 + 1},0.5\n{2**62 + 1},1.5\n")

    def test_columns_of_unequal_length_rejected_before_the_file_is_opened(self, tmp_path):
        with pytest.raises(InvalidInputError, match=re.escape("got lengths [2, 1]")):
            write_columns(tmp_path / "x.csv", ["a", "b"],
                          [format_column(np.array([1.0, 2.0])), format_column(np.array([1.0]))])
        assert not (tmp_path / "x.csv").exists()
