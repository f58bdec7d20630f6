import csv
import dataclasses
import json
import math
import multiprocessing
import os
import re
from dataclasses import asdict

import pytest

from terrafilter import (BootstrapParticleFilter, ConfigError, GvffRls, InvalidInputError,
                         MetricsReport, NormalizedLms, NumericalDivergenceError, RvmRls,
                         ScenarioConfig, StaticRls, TerrainParams, synthesize,
                         write_trace_csv)
from terrafilter import bench
from terrafilter.bench import (AlgorithmSpec, ExperimentConfig, config_hash,
                               load_config, run_cell, run_experiments)
from terrafilter.cli import main
from terrafilter.scenario import format_column
from terrafilter.metrics import (aggregate_csv, median_groups, render_tables,
                                 reports_from_csv, reports_to_csv)

from goldens import (BENCHMARK_CONFIG, SMALL_GOLDEN, mismatch_note,
                     output_digests, strip_timing)

README = BENCHMARK_CONFIG.parent.parent / "README.md"

ALGOS = [
    AlgorithmSpec("rvm_rls", "rvm_rls", {"target_noise_variance": "scenario"}),
    AlgorithmSpec("rls", "rls", {}),
    AlgorithmSpec("lms", "lms", {}),
    AlgorithmSpec("gvff_rls", "gvff_rls", {}),
    AlgorithmSpec("pf", "pf", {"particle_count": 50}),
]


def small_config(out, seeds=(0,), algorithms=ALGOS, emit_traces=True):
    scenario = ScenarioConfig(name="small", sample_count=300, clean_prefix=100,
                              outlier_fraction=0.10)
    return ExperimentConfig(
        scenarios=(scenario,),
        algorithms=tuple(algorithms),
        seeds=tuple(seeds),
        output_dir=str(out),
        emit_traces=emit_traces,
    )


class TestRunExperiments:
    def test_report_cardinality(self, tmp_path):
        config = small_config(tmp_path / "a")
        manifest = run_experiments(config)
        text = (tmp_path / "a" / "reports.csv").read_text()
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 5  # header + one row per algorithm
        assert len(manifest.cells) == 5
        assert not manifest.failed

    def test_rerun_is_deterministic_outside_timing(self, tmp_path):
        config = small_config(tmp_path / "a", emit_traces=False)
        run_experiments(config)
        first = (tmp_path / "a" / "reports.csv").read_text()
        config2 = small_config(tmp_path / "b", emit_traces=False)
        run_experiments(config2)
        second = (tmp_path / "b" / "reports.csv").read_text()
        assert strip_timing(first) == strip_timing(second)

    def test_output_files_exist(self, tmp_path):
        config = small_config(tmp_path / "a")
        run_experiments(config)
        out = tmp_path / "a"
        assert (out / "reports.csv").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "traces" / "trace_small_0.csv").exists()
        assert (out / "figs" / "fig4_small_0.csv").exists()
        assert (out / "figs" / "fig5_small_0.csv").exists()
        assert (out / "figs" / "fig6_small_0.csv").exists()
        fig4_header = (out / "figs" / "fig4_small_0.csv").read_text().split("\n")[0]
        assert "lambda" in fig4_header and "sigma2_hat" in fig4_header

    def test_fig4_predictions_match_fig5(self, tmp_path):
        run_experiments(small_config(tmp_path / "a"))

        def column(name, key):
            with open(tmp_path / "a" / "figs" / name, encoding="utf-8") as fh:
                return {row["t"]: row[key] for row in csv.DictReader(fh)}

        fig4 = column("fig4_small_0.csv", "prediction")
        fig5 = column("fig5_small_0.csv", "pred_rvm_rls")
        assert len(fig4) == 200
        assert fig4 == fig5

    def test_crash_isolation(self, tmp_path):
        # valid params, but a window longer than the 300-sample trace
        bad = AlgorithmSpec("broken", "rvm_rls", {"init_window": 400})
        config = small_config(tmp_path / "a", algorithms=ALGOS[:2] + [bad],
                              emit_traces=False)
        manifest = run_experiments(config)
        assert len(manifest.failed) == 1
        assert manifest.failed[0].algorithm == "broken"
        reports = reports_from_csv((tmp_path / "a" / "reports.csv").read_text())
        assert {r.algorithm for r in reports} == {"rvm_rls", "rls"}
        # the broken filter cannot be timed either: recorded, not only NaN
        assert [c.algorithm for c in manifest.timing_failed] == ["broken"]
        assert manifest.timing_failed[0].error.startswith("timing: ")

    def test_chunk_isolates_an_algorithm_whose_cells_raise(self, tmp_path, monkeypatch):
        # a wide lockstep's MemoryError reaches the job as any exception
        # does: that algorithm's cells fail by name, the others are kept
        run_cells = bench.run_cells

        def fail_rls(spec, traces):
            if spec.name == "rls":
                raise MemoryError("lockstep too wide")
            return run_cells(spec, traces)

        monkeypatch.setattr(bench, "run_cells", fail_rls)
        config = small_config(tmp_path, seeds=(0, 1), algorithms=ALGOS[:2])
        results = bench._run_chunk(config.scenarios[0], [0, 1], config.algorithms)
        assert sorted(results) == [("small", a, seed) for a in ("rls", "rvm_rls")
                                   for seed in (0, 1)]
        for (_, algorithm, seed), (status, report) in results.items():
            if algorithm == "rls":
                assert status.status == "error" and report is None
                assert status.error == "MemoryError: lockstep too wide"
            else:
                assert status.status == "ok" and status.error == ""
                assert (report.algorithm, report.seed) == ("rvm_rls", seed)

    def test_seed_whose_every_cell_failed_writes_its_trace_and_no_figure(
            self, tmp_path, monkeypatch):
        def fail(spec, traces):
            raise MemoryError("lockstep too wide")

        monkeypatch.setattr(bench, "run_cells", fail)
        (tmp_path / "traces").mkdir()
        (tmp_path / "figs").mkdir()
        config = small_config(tmp_path, algorithms=ALGOS[:2])
        results = bench._run_chunk(config.scenarios[0], [0], config.algorithms, tmp_path)
        assert [status.status for status, _ in results.values()] == ["error", "error"]
        trace = tmp_path / "traces" / "trace_small_0.csv"
        assert trace.read_text().startswith("t,")
        assert list((tmp_path / "figs").iterdir()) == []

    def test_pool_reports_match_direct_cells(self, tmp_path):
        config = small_config(tmp_path / "p", seeds=(0, 1), emit_traces=False)
        run_experiments(config)
        direct = []
        for scenario in config.scenarios:
            for seed in config.seeds:
                trace = synthesize(scenario.with_seed(seed))
                direct += [run_cell(spec, trace)[0]
                           for spec in config.algorithms]
        direct.sort(key=lambda r: (r.scenario_id, r.algorithm, r.seed))
        pooled = strip_timing((tmp_path / "p" / "reports.csv").read_text())
        assert pooled == strip_timing(reports_to_csv(direct))

    def test_run_cell_raises_its_cells_error(self):
        trace = synthesize(ScenarioConfig(seed=0))
        spiked = trace.measurement.copy()
        spiked[300] = 1.7e308
        with pytest.raises(NumericalDivergenceError) as err:
            run_cell(AlgorithmSpec("rls", "rls"), dataclasses.replace(trace, measurement=spiked))
        assert err.value.step_index == 300

    def test_outputs_match_golden(self, tmp_path):
        run_experiments(small_config(tmp_path / "a", seeds=(0, 1)))
        golden = json.loads(SMALL_GOLDEN.read_text(encoding="utf-8"))
        assert output_digests(tmp_path / "a") == golden["files"], mismatch_note()

    def test_failed_job_fails_its_cells_and_the_rest_is_written(self, tmp_path,
                                                                 monkeypatch, capsys):
        # seed 0's trace file cannot be written, so its job raises after its
        # cells ran; on two CPUs, seed 1 is a job of its own
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
        out = tmp_path / "a"
        (out / "traces" / "trace_small_0.csv").mkdir(parents=True)
        config = small_config(out, seeds=(0, 1))
        manifest = run_experiments(config)
        assert [c.seed for c in manifest.cells] == [0, 1] * 5
        for cell in manifest.cells:
            if cell.seed == 0:
                assert cell.status == "error" and cell.error.startswith("IsADirectoryError: ")
            else:
                assert cell.status == "ok"
        reports = reports_from_csv((out / "reports.csv").read_text())
        assert {r.seed for r in reports} == {1} and len(reports) == 5
        cells = json.loads((out / "manifest.json").read_text())["cells"]
        assert [c["status"] for c in cells] == [c.status for c in manifest.cells]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"version": 1, **asdict(config)}))
        assert main(["run", str(path)]) == 1
        assert "IsADirectoryError" in capsys.readouterr().err

    def test_manifest_covers_every_cell_once(self, tmp_path):
        config = small_config(tmp_path / "a", seeds=(0, 1), emit_traces=False)
        manifest = run_experiments(config)
        keys = [(c.scenario_id, c.algorithm, c.seed) for c in manifest.cells]
        assert len(keys) == len(set(keys)) == 2 * 5


def _file_bytes(out):
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def _output_dirs(out):
    for sub in ("traces", "figs"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    return out


class TestTraceFileText:
    """A job formats ``times``, ``terrain`` and ``reference`` once, from its
    first trace, and shares that text among its seeds; the files must not
    show it."""

    @pytest.mark.parametrize("scenario", [
        *load_config(BENCHMARK_CONFIG).scenarios,
        ScenarioConfig(name="small", sample_count=300, clean_prefix=100,
                       terrain=TerrainParams(amplitude=-0.0)),
    ], ids=lambda scenario: f"{scenario.name}-amplitude={scenario.terrain.amplitude}")
    def test_seeds_share_times_terrain_and_reference(self, scenario):
        # synthesis makes these three from the scenario alone
        first, second = (synthesize(scenario.with_seed(seed)) for seed in (0, 1))
        for key in ("times", "terrain", "reference"):
            assert getattr(first, key).tobytes() == getattr(second, key).tobytes()
        assert first.measurement.tobytes() != second.measurement.tobytes()

    def test_one_job_writes_what_one_seed_jobs_write(self, tmp_path):
        scenario = small_config(tmp_path).scenarios[0]
        together = _output_dirs(tmp_path / "together")
        bench._run_chunk(scenario, [0, 1, 2], ALGOS, together)
        alone = _output_dirs(tmp_path / "alone")
        for seed in (0, 1, 2):
            bench._run_chunk(scenario, [seed], ALGOS, alone)
        assert len(_file_bytes(together)) == 3 * 4
        assert _file_bytes(together) == _file_bytes(alone)

    def test_job_formats_each_trace_length_column_once(self, tmp_path, monkeypatch):
        scenario = small_config(tmp_path).scenarios[0]
        lengths = []

        def counting(column):
            lengths.append(len(column))
            return format_column(column)

        monkeypatch.setattr(bench, "format_column", counting)
        bench._run_chunk(scenario, [0, 1, 2], ALGOS, _output_dirs(tmp_path))
        # times, terrain and reference once, then each seed's z and outlier mask
        assert lengths.count(scenario.sample_count) == 3 + 3 * 2

    def test_trace_file_is_the_one_write_trace_csv_writes(self, tmp_path):
        # -0.0 * sin(...) gives -0 and 0, which print apart
        scenario = ScenarioConfig(name="small", sample_count=300, clean_prefix=100,
                                  terrain=TerrainParams(amplitude=-0.0))
        out = _output_dirs(tmp_path / "out")
        bench._run_chunk(scenario, [0, 1], ALGOS[:2], out)
        for seed in (0, 1):
            write_trace_csv(synthesize(scenario.with_seed(seed)), tmp_path / "trace.csv")
            written = (out / "traces" / f"trace_small_{seed}.csv").read_bytes()
            assert (tmp_path / "trace.csv").read_bytes() == written
            assert b",-0," in written and b",0," in written


class TestRenderTable:
    def test_single_report(self):
        table = render_tables([MetricsReport("rvm_rls", 0.1, 0.2, 0.3, 0.4,
                                             "s", 0)])
        assert "rvm_rls" in table
        assert table.count("*") == 4  # sole row wins every column

    def test_tie_flags_all_minima(self):
        a = MetricsReport("a", 1.0, 0.5, 1.0, 1.0, "s", 0)
        b = MetricsReport("b", 2.0, 0.5, 2.0, 2.0, "s", 0)
        table = render_tables([a, b])
        rows = table.strip().split("\n")
        row_a = next(r for r in rows if r.startswith("a"))
        row_b = next(r for r in rows if r.startswith("b"))
        assert row_a.count("*") == 4
        assert row_b.count("*") == 1  # ties on mse only

    def test_median_reports_collapse_seeds(self):
        rows = [MetricsReport("a", 1.0, m, 1.0, 1.0, "s", i)
                for i, m in enumerate([0.1, 0.2, 0.9])]
        (group,) = median_groups(rows)
        assert group[:3] == ("s", "a", 3)
        assert group[3]["mse"] == pytest.approx(0.2)

    def test_two_scenarios_with_a_tie(self):
        reports = [MetricsReport("rls", 0.0125, m, 0.75, 2.5, "t", seed)
                   for seed, m in enumerate([0.5, 0.25, 0.125])]
        reports += [MetricsReport("lms", 0.004, 0.25, 12.5, 1.0, "t", 0),
                    MetricsReport("rvm_rls", 0.0196, 0.0315, 0.35, 0.7, "s", 0),
                    MetricsReport("lms", 0.0049, 0.0315, 0.4, 0.6, "s", 0)]
        assert render_tables(reports) == (
            "scenario: s\n"
            "Algorithm  SR (ms)  MSE     VR      ME    \n"
            "---------  -------  ------  ------  ------\n"
            "lms        0.005*   0.032*  0.400   0.600*\n"
            "rvm_rls    0.020    0.032*  0.350*  0.700 \n"
            "\n"
            "scenario: t\n"
            "Algorithm  SR (ms)  MSE     VR       ME    \n"
            "---------  -------  ------  -------  ------\n"
            "lms        0.004*   0.250*  12.500   1.000*\n"
            "rls        0.013    0.250*  0.750*   2.500 \n"
            "\n")
        assert aggregate_csv(reports) == (
            "scenario_id,algorithm,seeds,median_sr_ms,median_mse,median_vr,median_me\n"
            "s,lms,1,0.004900,0.0315,0.40000000000000002,0.59999999999999998\n"
            "s,rvm_rls,1,0.019600,0.0315,0.34999999999999998,0.69999999999999996\n"
            "t,lms,1,0.004000,0.25,12.5,1\n"
            "t,rls,3,0.012500,0.25,0.75,2.5\n")

    def test_nan_timing_is_never_best(self):
        # a failed timing run leaves sr_ms NaN: it prints as nan, and the
        # column's minimum is taken over the other rows, wherever it comes
        nan = float("nan")
        reports = [MetricsReport("a", nan, 1.0, 1.0, 1.0, "s", 0),
                   MetricsReport("b", 0.5, 2.0, 2.0, 2.0, "s", 0),
                   MetricsReport("a", 0.5, 1.0, 1.0, 1.0, "t", 0),
                   MetricsReport("b", nan, 2.0, 2.0, 2.0, "t", 0)]
        assert render_tables(reports) == (
            "scenario: s\n"
            "Algorithm  SR (ms)  MSE     VR      ME    \n"
            "---------  -------  ------  ------  ------\n"
            "a          nan      1.000*  1.000*  1.000*\n"
            "b          0.500*   2.000   2.000   2.000 \n"
            "\n"
            "scenario: t\n"
            "Algorithm  SR (ms)  MSE     VR      ME    \n"
            "---------  -------  ------  ------  ------\n"
            "a          0.500*   1.000*  1.000*  1.000*\n"
            "b          nan      2.000   2.000   2.000 \n"
            "\n")

    def test_no_reports_no_tables(self):
        assert render_tables([]) == ""
        assert aggregate_csv([]) == (
            "scenario_id,algorithm,seeds,median_sr_ms,median_mse,median_vr,median_me\n")


def _set(*keys, value):
    """A mutation of a parsed config: set the item at the ``keys`` path."""
    def mutate(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return mutate


def _drop_kind(payload):
    del payload["algorithms"][0]["kind"]


# Each case mutates configs/benchmark.json (algorithms: rvm_rls, rls, lms,
# gvff_rls, pf) and names the text the ConfigError must contain.
REJECTED = {
    "sample_count_fraction": (_set("scenarios", 0, "sample_count", value=2000.7),
                              ["config.scenarios[0]: sample_count must be an integer"]),
    "sample_count_bool": (_set("scenarios", 0, "sample_count", value=True),
                          ["config.scenarios[0]: sample_count must be an integer"]),
    "emit_traces_string": (_set("emit_traces", value="false"),
                           ["config: emit_traces must be a bool"]),
    "seeds_fractions": (_set("seeds", value=[0.5, 1.9]),
                        ["config: seeds[0] must be an integer"]),
    "seeds_duplicate": (_set("seeds", value=[0, 0]), ["config.seeds", "distinct"]),
    "seeds_negative": (_set("seeds", value=[0, -1]),
                       ["config: seeds[1] must lie in [0, inf), got -1"]),
    "seeds_string": (_set("seeds", value="abc"), ["config: seeds must be a tuple, got str"]),
    "clearance_nan_string": (_set("scenarios", 0, "clearance", value="nan"),
                             ["config.scenarios[0]: clearance must be finite"]),
    "clearance_json_nan": (_set("scenarios", 0, "clearance", value=float("nan")),
                           ["config.scenarios[0]: clearance must be finite"]),
    "name_integer": (_set("scenarios", 0, "name", value=5),
                     ["config.scenarios[0]: name must be a str"]),
    "outlier_band_three_items": (
        _set("scenarios", 0, "outlier_band", value=[-30.0, 0.0, 30.0]),
        ["config.scenarios[0]: outlier_band must be 2 numbers"]),
    "scenario_seed_negative": (_set("scenarios", 0, "seed", value=-1),
                               ["config.scenarios[0]", "seed"]),
    # each cell's trace takes its seed from config.seeds
    "scenario_seed_nonzero": (_set("scenarios", 0, "seed", value=123),
                              ["config.scenarios[0].seed"]),
    "kind_missing": (_drop_kind, ["config.algorithms[0].kind"]),
    "kind_unknown": (_set("algorithms", 1, "kind", value="kalman"),
                     ["config.algorithms[1].kind", "unknown algorithm kind 'kalman'"]),
    "particle_count_float": (
        _set("algorithms", 4, "params", value={"particle_count": 100.0}),
        ["config.algorithms[4].params: particle_count must be an integer"]),
    "process_std_nan": (
        _set("algorithms", 4, "params", value={"process_std": float("nan")}),
        ["config.algorithms[4].params: process_std must be finite"]),
    "lms_mu_5": (_set("algorithms", 2, "params", value={"mu": 5}),
                 ["config.algorithms[2].params", "mu"]),
    "lms_mu_negative": (_set("algorithms", 2, "params", value={"mu": -1}),
                        ["config.algorithms[2].params", "mu"]),
    "lms_mu_nan": (_set("algorithms", 2, "params", value={"mu": float("nan")}),
                   ["config.algorithms[2].params: mu must be finite"]),
    "lms_eps_negative": (_set("algorithms", 2, "params", value={"eps": -1}),
                         ["config.algorithms[2].params", "eps"]),
    "unknown_param": (_set("algorithms", 2, "params", value={"bogus": 1}),
                      ["config.algorithms[2].params.bogus"]),
    "pf_seed": (_set("algorithms", 4, "params", value={"seed": 123}),
                ["config.algorithms[4].params.seed"]),
    # outlier amplitudes are multiples of the noise standard deviation
    "noise_free_with_outliers": (_set("scenarios", 0, "noise_variance", value=0.0),
                                 ["config.scenarios[0]", "noise_variance"]),
    # a run's variance ratio divides by the noise variance
    "noise_free": (_set("scenarios", 1, "noise_variance", value=0.0),
                   ["config.scenarios[1].noise_variance: each cell's variance ratio "
                    "divides by it, so a run needs it positive, got 0.0"]),
    # an integer beyond the float range is no finite number
    "clearance_400_digits": (_set("scenarios", 0, "clearance", value=10**400),
                             ["config.scenarios[0]: clearance must be finite"]),
    "step_size_400_digits": (
        _set("algorithms", 0, "params", "step_size", value=10**400),
        ["config.algorithms[0].params: step_size must be finite"]),
    "sample_count_10_30": (_set("scenarios", 0, "sample_count", value=10**30),
                           ["config.scenarios[0]", "sample_count"]),
    # a name becomes part of file names and csv headers: a trailing newline
    # (which a regex's "$" matches before) is no filesystem-safe character
    "algorithm_name_newline": (_set("algorithms", 2, "name", value="lms\n"),
                               ["config.algorithms", "filesystem-safe"]),
    "scenario_name_newline": (_set("scenarios", 0, "name", value="terrain_outliers\n"),
                              ["config.scenarios", "filesystem-safe"]),
}

# (index in configs/benchmark.json, filter, parameter, value): each one is
# rejected by the filter's fit and by a config load
BAD_FILTER_PARAMS = [
    (0, RvmRls, "step_size", 0.0), (0, RvmRls, "step_size", -1e-3),
    (0, RvmRls, "step_size", math.nan), (0, RvmRls, "step_size", math.inf),
    (0, RvmRls, "cost_gain", 0.0), (0, RvmRls, "cost_gain", -20.0),
    (0, RvmRls, "cost_gain", math.nan), (0, RvmRls, "cost_gain", math.inf),
    (0, RvmRls, "target_noise_variance", 0.0),
    (0, RvmRls, "target_noise_variance", -0.09),
    (0, RvmRls, "target_noise_variance", math.nan),
    (0, RvmRls, "target_noise_variance", math.inf),
    (3, GvffRls, "alpha", math.nan), (3, GvffRls, "alpha", math.inf),
    (3, GvffRls, "alpha", -math.inf),
    # 0.5 / measurement_std**2 divides by zero, or overflows to inf
    (4, BootstrapParticleFilter, "measurement_std", 1e-300),
    (4, BootstrapParticleFilter, "measurement_std", 1e-160),
    # a float parameter takes a real number whose float is finite
    (0, RvmRls, "step_size", "abc"), (0, RvmRls, "lambda_min", "a"),
    (2, NormalizedLms, "mu", None),
    (0, RvmRls, "step_size", 10**400), (3, GvffRls, "alpha", 10**400),
    (2, NormalizedLms, "eps", 10**400),
    (4, BootstrapParticleFilter, "measurement_std", 10**400),
    (1, StaticRls, "scale_divisor", 10**400),
    # init_window must be at least degree + 2 (lms is degree 0, the rest 4)
    (0, RvmRls, "init_window", 5), (1, StaticRls, "init_window", 5),
    (2, NormalizedLms, "init_window", 1), (3, GvffRls, "init_window", 5),
    (4, BootstrapParticleFilter, "init_window", 5),
]


class TestConfigFiles:
    def _dump(self, tmp_path, payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def _payload(self):
        return {
            "version": 1,
            "seeds": [0],
            "scenarios": [{"name": "s", "sample_count": 300,
                           "clean_prefix": 100}],
            "algorithms": [{"name": "lms", "kind": "lms"}],
        }

    def test_roundtrip(self, tmp_path):
        cfg = load_config(self._dump(tmp_path, self._payload()))
        assert cfg.scenarios[0].sample_count == 300
        assert cfg.algorithms[0].kind == "lms"

    def test_unknown_keys_fail_closed(self, tmp_path):
        payload = self._payload()
        payload["scenarios"][0]["typo_key"] = 1
        with pytest.raises(ConfigError):
            load_config(self._dump(tmp_path, payload))
        payload = self._payload()
        payload["extra"] = True
        with pytest.raises(ConfigError):
            load_config(self._dump(tmp_path, payload))

    def test_workers_key_rejected(self, tmp_path):
        payload = self._payload()
        payload["workers"] = 2
        with pytest.raises(ConfigError, match="workers"):
            load_config(self._dump(tmp_path, payload))

    def test_version_checked(self, tmp_path):
        payload = self._payload()
        payload["version"] = 99
        with pytest.raises(ConfigError):
            load_config(self._dump(tmp_path, payload))

    @pytest.mark.parametrize("case", list(REJECTED))
    def test_rejected_case_names_its_field(self, case, tmp_path):
        mutate, expected = REJECTED[case]
        payload = json.loads(BENCHMARK_CONFIG.read_text(encoding="utf-8"))
        mutate(payload)
        with pytest.raises(ConfigError) as err:
            load_config(self._dump(tmp_path, payload))
        for text in expected:
            assert text in str(err.value)

    @pytest.mark.parametrize("index, cls, name, value", BAD_FILTER_PARAMS,
                             ids=[f"{c.__name__}-{n}={'10**400' if v == 10**400 else v}"
                                  for _, c, n, v in BAD_FILTER_PARAMS])
    def test_bad_filter_param_rejected_at_fit_and_load(self, index, cls, name,
                                                       value, tmp_path):
        trace = synthesize(ScenarioConfig(sample_count=300, clean_prefix=100))
        with pytest.raises(InvalidInputError, match=name):
            cls(**{name: value}).fit(trace.times[:100], trace.measurement[:100])
        payload = json.loads(BENCHMARK_CONFIG.read_text(encoding="utf-8"))
        payload["algorithms"][index]["params"] = {name: value}
        with pytest.raises(ConfigError) as err:
            load_config(self._dump(tmp_path, payload))
        assert f"config.algorithms[{index}].params" in str(err.value)
        assert name in str(err.value)

    def test_degree_above_max_rejected_at_load(self, tmp_path):
        # each cell would build a 999,002 x 999,001 design matrix, about 8 TB
        payload = self._payload()
        payload["scenarios"][0]["sample_count"] = 1_000_000
        payload["algorithms"] = [{"name": "rls", "kind": "rls",
                                  "params": {"degree": 999000, "init_window": 999002}}]
        with pytest.raises(ConfigError, match=re.escape(
                "config.algorithms[0].params: degree must lie in [0, 10], got 999000")):
            load_config(self._dump(tmp_path, payload))

    def test_duplicate_names_rejected(self, tmp_path):
        payload = self._payload()
        payload["algorithms"] = [{"name": "x", "kind": "lms"},
                                 {"name": "x", "kind": "rls"}]
        with pytest.raises(ConfigError):
            load_config(self._dump(tmp_path, payload))

    def test_hash_ignores_key_order(self, tmp_path):
        payload = self._payload()
        reordered = {k: payload[k] for k in reversed(list(payload))}
        a = load_config(self._dump(tmp_path, payload, "a.json"))
        b = load_config(self._dump(tmp_path, reordered, "b.json"))
        assert config_hash(a) == config_hash(b)

    def test_hash_sees_content(self, tmp_path):
        a = load_config(self._dump(tmp_path, self._payload(), "a.json"))
        payload = self._payload()
        payload["seeds"] = [1]
        b = load_config(self._dump(tmp_path, payload, "b.json"))
        assert config_hash(a) != config_hash(b)

    def test_default_config_is_valid(self):
        cfg = load_config(BENCHMARK_CONFIG)
        assert len(cfg.scenarios) == 2
        assert len(cfg.algorithms) == 5
        assert cfg.seeds == tuple(range(10))

    @pytest.mark.parametrize("path, digest", [
        (BENCHMARK_CONFIG,
         "f173fd4b53301799130cc1a1e01939473d1b78c000c9b38a13f967b51878f27f"),
        (BENCHMARK_CONFIG.parent.parent / "perfbench" / "figures.json",
         "1240002f67cdd805ab168ee399acc69bc7b4d110b874d0a7b7cc9b7c14da36ff"),
    ], ids=["benchmark", "figures"])
    def test_shipped_config_hashes_pinned(self, path, digest):
        assert config_hash(load_config(path)) == digest

    def test_readme_quotes_the_message_load_config_raises(self, tmp_path):
        payload = json.loads(BENCHMARK_CONFIG.read_text(encoding="utf-8"))
        payload["scenarios"][0]["sample_count"] = 2000.7
        with pytest.raises(ConfigError) as err:
            load_config(self._dump(tmp_path, payload))
        assert f"`{err.value}`" in README.read_text(encoding="utf-8")


def one_cell_config(**fields):
    """A valid one-cell ExperimentConfig, with ``fields`` replaced."""
    return ExperimentConfig(**{"scenarios": (ScenarioConfig(),), "seeds": (0,),
                               "algorithms": (AlgorithmSpec("lms", "lms"),), **fields})


class TestExperimentConfig:
    @pytest.mark.parametrize("build, message", [
        (lambda: one_cell_config(seeds="ab"), "seeds must be a tuple, got str"),
        (lambda: one_cell_config(seeds=[0]), "seeds must be a tuple, got list"),
        (lambda: one_cell_config(seeds=(0.5,)), "seeds[0] must be an integer, got 0.5"),
        (lambda: one_cell_config(scenarios=(None,)),
         "scenarios[0] must be a ScenarioConfig, got NoneType"),
        (lambda: one_cell_config(emit_traces="no"), "emit_traces must be a bool, got str"),
        (lambda: one_cell_config(output_dir=5), "output_dir must be a str, got int"),
        (lambda: AlgorithmSpec("lms", "lms", params=None),
         "params must be a dict, got NoneType"),
    ], ids=["seeds-str", "seeds-list", "seeds-float", "scenario-none", "emit_traces-str",
            "output_dir-int", "params-none"])
    def test_field_checked_when_built(self, build, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            build()

    def test_params_keys_of_mixed_types_are_unknown_keys(self):
        # JSON keys are strings; a dict built in Python may mix types
        spec = AlgorithmSpec("lms", "lms", params={1: 2, "a": 3})
        with pytest.raises(ConfigError, match=re.escape(
                "config.algorithms[0].params.1: unknown key; "
                "config.algorithms[0].params.a: unknown key")):
            one_cell_config(algorithms=(spec,))

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            dataclasses.replace(one_cell_config(), seeds=(0, 0))

    def test_fields_cannot_be_assigned(self):
        config = one_cell_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seeds = (1,)

    def test_lists_cannot_change_after_the_check(self):
        # the fields are tuples, so no seed can join after the check
        config = load_config(BENCHMARK_CONFIG)
        for key in ("scenarios", "algorithms", "seeds"):
            assert type(getattr(config, key)) is tuple, key
        with pytest.raises(AttributeError):
            config.seeds.append(0)
        assert config.seeds == tuple(range(10))


class TestCli:
    def _config_file(self, tmp_path):
        payload = {
            "version": 1,
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
            "scenarios": [{"name": "s", "sample_count": 300,
                           "clean_prefix": 100}],
            "algorithms": [{"name": "lms", "kind": "lms"},
                           {"name": "rls", "kind": "rls"}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_run_and_table(self, tmp_path, capsys):
        code = main(["run", str(self._config_file(tmp_path)), "--no-traces"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario: s" in out
        code = main(["table", str(tmp_path / "out" / "reports.csv")])
        assert code == 0
        tables = capsys.readouterr().out
        assert "lms" in tables
        assert out == tables + f"ok: 2 cells -> {tmp_path / 'out'}\n"

    def test_run_flags(self, tmp_path, capsys):
        code = main(["run", str(self._config_file(tmp_path)),
                     "--out", str(tmp_path / "alt"), "--no-traces"])
        assert code == 0
        reports = reports_from_csv((tmp_path / "alt" / "reports.csv").read_text())
        assert {r.seed for r in reports} == {0}
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "alt" / "traces").exists()
        assert not (tmp_path / "alt" / "figs").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TERRAFILTER_OUTPUT_DIR", str(tmp_path / "envout"))
        code = main(["run", str(self._config_file(tmp_path)), "--no-traces"])
        assert code == 0
        assert (tmp_path / "envout" / "reports.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 1, \"bogus\": 1}")
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("command, field, value", [
        ("run", "outlier_band", [-30.0, 0.0, 30.0]),
        ("synth", "outlier_band", [-30.0, 0.0, 30.0]),
        ("run", "terrain", {"omega": 1e308}),
        ("synth", "terrain", {"omega": 1e308}),
        ("run", None, lambda text: text.encode("utf-16")),
        ("synth", None, lambda text: text.encode("utf-16")),
        ("run", None, lambda text: b"[" * 100_000 + b"]" * 100_000),
        ("synth", None, lambda text: b"[" * 100_000 + b"]" * 100_000),
        ("run", "clearance", 10**400),
        ("synth", "clearance", 10**400),
        ("run", "sample_count", 1_000_001),
        ("synth", "sample_count", 10**15),
        ("run", "sample_count", 10**30),
        ("synth", "sample_count", 10**30),
    ], ids=["run", "synth", "run-terrain", "synth-terrain", "run-not-utf8",
            "synth-not-utf8", "run-deep-json", "synth-deep-json",
            "run-clearance-400-digits", "synth-clearance-400-digits",
            "run-sample-count-1000001", "synth-sample-count-10-15",
            "run-sample-count-10-30", "synth-sample-count-10-30"])
    def test_bad_config_exits_2_without_traceback(self, command, field, value,
                                                   tmp_path, capsys):
        # a bad scenario field, or with no field a file whose bytes are
        # value(the config text): not UTF-8, or nested too deep to parse
        payload = json.loads(self._config_file(tmp_path).read_text())
        if field is not None:
            payload["scenarios"][0][field] = value
        args = [command, str(tmp_path / "bad.json")]
        if command == "synth":
            payload = payload["scenarios"][0]
            args += ["--out", str(tmp_path / "trace.csv")]
        text = json.dumps(payload)
        (tmp_path / "bad.json").write_bytes(value(text) if field is None else text.encode())
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert (field or "is not valid JSON") in err

    # load_config is asserted first, so that a particle count a run would
    # really allocate never reaches one where the bound is missing
    @pytest.mark.parametrize("kind, params, message", [
        ("rvm_rls", {"rejected_update": "skip"}, ".params.rejected_update: unknown key"),
        ("pf", {"particle_count": 1_000_001}, ".params: particle_count must lie in"),
        ("pf", {"particle_count": 10**15}, ".params: particle_count must lie in"),
        ("pf", {"particle_count": 10**30}, ".params: particle_count must lie in"),
    ], ids=["rejected_update", "particle-count-1000001", "particle-count-10-15",
            "particle-count-10-30"])
    def test_bad_filter_param_exits_2_without_traceback(self, kind, params, message,
                                                        tmp_path, capsys):
        payload = json.loads(self._config_file(tmp_path).read_text())
        payload["algorithms"] = [{"name": kind, "kind": kind, "params": params}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.algorithms[0]") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("row", ["rvm_rls,0.1,abc,1,1,s,0", "rvm_rls,0.1,0.2",
                                     "rvm_rls,0.1,nan,1,1,s,0", "rvm_rls,0.1,0.2,1,1,s,-1",
                                     "rvm_rls,0.1,0.2,1,1,s" + "s" * 200_000 + ",0",
                                     "rvm_rls,0.1,0.2,1,1,s\xe9,0"],
                             ids=["mse_abc", "three_columns", "mse_nan", "negative_seed",
                                  "field_too_large", "not_utf8"])
    def test_table_on_malformed_reports_exits_1_without_traceback(
            self, row, tmp_path, capsys):
        path = tmp_path / "reports.csv"
        # latin-1 writes each character as one byte: an "\xe9" is not UTF-8
        path.write_text("algorithm,sr_ms,mse,vr,me,scenario_id,seed\n" + row + "\n",
                        encoding="latin-1")
        assert main(["table", str(path)]) == 1
        err = capsys.readouterr().err
        where = "reports line 2" if row.isascii() else f"{path} is not UTF-8"
        assert err.startswith(f"error: {where}") and "Traceback" not in err

    def test_cell_failure_exit_code(self, tmp_path, capsys):
        payload = json.loads(self._config_file(tmp_path).read_text())
        payload["algorithms"].append(
            {"name": "broken", "kind": "rvm_rls", "params": {"init_window": 400}})
        path = tmp_path / "config2.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path), "--no-traces"]) == 1

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the worker inherits the patched cells only under fork")
    def test_dead_worker_fails_its_cells(self, tmp_path, monkeypatch, capsys):
        # one worker runs the two scenarios' jobs in order, whatever the
        # host's CPU count: the first job finishes, the second one's worker
        # dies
        real_run_cells = bench.run_cells

        def dying_run_cells(spec, traces):
            if traces[0].config.name == "t":
                os._exit(1)
            return real_run_cells(spec, traces)

        monkeypatch.setattr(bench, "run_cells", dying_run_cells)
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
        payload = json.loads(self._config_file(tmp_path).read_text())
        payload["scenarios"].append(dict(payload["scenarios"][0], name="t"))
        payload["seeds"] = [0, 1]
        path = tmp_path / "config2.json"
        path.write_text(json.dumps(payload))
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("fork", force=True)
        try:
            code = main(["run", str(path), "--no-traces"])
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert code == 1
        err = capsys.readouterr().err
        assert "BrokenProcessPool" in err and "Traceback" not in err
        out = tmp_path / "out"
        cells = json.loads((out / "manifest.json").read_text())["cells"]
        assert len(cells) == 8
        dead = [c for c in cells if c["scenario_id"] == "t"]
        assert len(dead) == 4 and all(
            c["status"] == "error" and "BrokenProcessPool" in c["error"] for c in dead)
        finished = [c for c in cells if c["scenario_id"] == "s"]
        assert len(finished) == 4 and all(c["status"] == "ok" for c in finished)
        reports = reports_from_csv((out / "reports.csv").read_text())
        assert ({(r.scenario_id, r.algorithm, r.seed) for r in reports}
                == {(c["scenario_id"], c["algorithm"], c["seed"]) for c in finished})

    def test_synth(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({"name": "s", "sample_count": 200,
                                    "clean_prefix": 50, "seed": 3}))
        dest = tmp_path / "trace.csv"
        assert main(["synth", str(scen), "--out", str(dest)]) == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "t,H,p,z,outlier"
        assert len(lines) == 201
