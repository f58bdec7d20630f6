import csv
import json
import multiprocessing
import os

import pytest

from terrafilter import ConfigError, MetricsReport, ScenarioConfig, synthesize
from terrafilter import bench
from terrafilter.bench import (AlgorithmSpec, ExperimentConfig, config_hash,
                               default_experiment_config, load_config,
                               median_reports, render_table, run_cell,
                               run_experiments)
from terrafilter.cli import main
from terrafilter.metrics import reports_from_csv, reports_to_csv

from goldens import SMALL_GOLDEN, mismatch_note, output_digests, strip_timing

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
        scenarios=[scenario],
        algorithms=list(algorithms),
        seeds=list(seeds),
        output_dir=str(out),
        emit_traces=emit_traces,
    ).validate()


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
        bad = AlgorithmSpec("broken", "rvm_rls", {"init_window": 3})
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

    def test_pool_reports_match_direct_cells(self, tmp_path):
        config = small_config(tmp_path / "p", seeds=(0, 1), emit_traces=False)
        run_experiments(config)
        direct = []
        for scenario in config.scenarios:
            for seed in config.seeds:
                trace = synthesize(scenario.with_seed(seed))
                direct += [run_cell(spec, scenario, seed, trace)[0]
                           for spec in config.algorithms]
        direct.sort(key=lambda r: (r.scenario_id, r.algorithm, r.seed))
        pooled = strip_timing((tmp_path / "p" / "reports.csv").read_text())
        assert pooled == strip_timing(reports_to_csv(direct))

    def test_outputs_match_golden(self, tmp_path):
        run_experiments(small_config(tmp_path / "a", seeds=(0, 1)))
        golden = json.loads(SMALL_GOLDEN.read_text(encoding="utf-8"))
        assert output_digests(tmp_path / "a") == golden["files"], mismatch_note()

    def test_manifest_covers_every_cell_once(self, tmp_path):
        config = small_config(tmp_path / "a", seeds=(0, 1), emit_traces=False)
        manifest = run_experiments(config)
        keys = [(c.scenario_id, c.algorithm, c.seed) for c in manifest.cells]
        assert len(keys) == len(set(keys)) == 2 * 5


class TestRenderTable:
    def test_single_report(self):
        table = render_table([MetricsReport("rvm_rls", 0.1, 0.2, 0.3, 0.4,
                                            "s", 0)])
        assert "rvm_rls" in table
        assert table.count("*") == 4  # sole row wins every column

    def test_tie_flags_all_minima(self):
        a = MetricsReport("a", 1.0, 0.5, 1.0, 1.0, "s", 0)
        b = MetricsReport("b", 2.0, 0.5, 2.0, 2.0, "s", 0)
        table = render_table([a, b])
        rows = table.strip().split("\n")
        row_a = next(r for r in rows if r.startswith("a"))
        row_b = next(r for r in rows if r.startswith("b"))
        assert row_a.count("*") == 4
        assert row_b.count("*") == 1  # ties on mse only

    def test_mixed_scenarios_rejected(self):
        a = MetricsReport("a", 1.0, 1.0, 1.0, 1.0, "s1", 0)
        b = MetricsReport("b", 1.0, 1.0, 1.0, 1.0, "s2", 0)
        with pytest.raises(Exception):
            render_table([a, b])

    def test_median_reports_collapse_seeds(self):
        rows = [MetricsReport("a", 1.0, m, 1.0, 1.0, "s", i)
                for i, m in enumerate([0.1, 0.2, 0.9])]
        med = median_reports(rows)
        assert len(med) == 1
        assert med[0].mse == pytest.approx(0.2)


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
        cfg = default_experiment_config()
        assert len(cfg.scenarios) == 2
        assert len(cfg.algorithms) == 5
        assert cfg.seeds == list(range(10))

    def test_shipped_benchmark_config_matches_default(self):
        # configs/benchmark.json must never drift from the in-code default
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent / "configs" / "benchmark.json"
        shipped = load_config(str(path))
        assert config_hash(shipped) == config_hash(default_experiment_config())


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
                     "--out", str(tmp_path / "alt"),
                     "--seed-override", "5", "--no-traces"])
        assert code == 0
        reports = reports_from_csv((tmp_path / "alt" / "reports.csv").read_text())
        assert {r.seed for r in reports} == {5}

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TERRAFILTER_OUTPUT_DIR", str(tmp_path / "envout"))
        code = main(["run", str(self._config_file(tmp_path)), "--no-traces"])
        assert code == 0
        assert (tmp_path / "envout" / "reports.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 1, \"bogus\": 1}")
        assert main(["run", str(bad)]) == 2

    def test_cell_failure_exit_code(self, tmp_path, capsys):
        payload = json.loads(self._config_file(tmp_path).read_text())
        payload["algorithms"].append(
            {"name": "broken", "kind": "rvm_rls", "params": {"init_window": 3}})
        path = tmp_path / "config2.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path), "--no-traces"]) == 1

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the worker inherits the patched cell only under fork")
    def test_dead_worker_fails_its_cells(self, tmp_path, monkeypatch, capsys):
        real_run_cell = bench.run_cell

        def dying_run_cell(spec, scenario, seed, trace, detailed=False):
            if seed == 1:
                os._exit(1)
            return real_run_cell(spec, scenario, seed, trace, detailed)

        monkeypatch.setattr(bench, "run_cell", dying_run_cell)
        payload = json.loads(self._config_file(tmp_path).read_text())
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
        assert len(cells) == 4
        dead = [c for c in cells if c["seed"] == 1]
        assert all(c["status"] == "error" and "BrokenProcessPool" in c["error"]
                   for c in dead)
        reports = reports_from_csv((out / "reports.csv").read_text())
        assert ({(r.algorithm, r.seed) for r in reports}
                == {(c["algorithm"], c["seed"]) for c in cells
                    if c["status"] == "ok"})

    def test_synth(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({"name": "s", "sample_count": 200,
                                    "clean_prefix": 50, "seed": 3}))
        dest = tmp_path / "trace.csv"
        assert main(["synth", str(scen), "--out", str(dest)]) == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "t,H,p,z,outlier"
        assert len(lines) == 201
