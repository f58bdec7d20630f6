"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each workload runs once at minimal length (one trace seed, one call); the
tests check the result line, that the golden check is live, and that the
traced run's counts repeat exactly.
"""

import json
import shutil
import subprocess
import sys

import pytest

import golden
import run
import workload as wl

RUN = str(wl.HERE / "run.py")
COUNT_UNITS = ("count", "bytes", "ratio")


def _bench(workload, trace, seed=5, cwd=wl.ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--seed-count", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=run.WORKLOADS)
def untraced(request, tmp_path_factory):
    proc = _bench(request.param, 0)
    result = _result(proc)
    out = tmp_path_factory.mktemp(request.param) / "out"
    config = None
    if request.param != "stream":
        shutil.copytree(run.OUT / request.param / "out", out)
        config = json.loads((run.OUT / request.param / "config.json").read_text())
    return request.param, proc.stdout, result, (out, config)


def test_every_end_to_end_metric_with_its_unit(untraced):
    workload, stdout, result, _ = untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run.END_TO_END.items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio" in stdout
    if workload == "stream":
        for name in run.STREAM_ONLY:
            assert f"  {name} " in stdout


def _check_altered_prediction():
    import numpy as np

    sys.path.insert(0, str(wl.SRC))
    from terrafilter import synthesize

    seed = golden.POOL[0]
    scenario = wl._stream_scenario()
    trace = synthesize(scenario.with_seed(seed))
    preds = wl._stream_filters(scenario)["lms"].run(trace.times, trace.measurement)
    table = golden.load()

    def one_pass(values):
        digests = dict(table["stream"][str(seed)])
        digests["lms"] = golden.sha256(values.tobytes())
        return [{"seed": seed, "digests": digests,
                 "steps": {name: len(values) for name in digests},
                 "failed": {name: 0 for name in digests}}]

    assert golden.check_stream(one_pass(preds), table)[1] == 0
    preds[7] = np.nextafter(preds[7], np.inf)
    attempted, failed, problems = golden.check_stream(one_pass(preds), table)
    assert failed == len(preds) and len(problems) == 1


def test_altered_output_byte_is_a_failure(untraced, tmp_path):
    workload, _, _, (out, config) = untraced
    if workload == "stream":
        _check_altered_prediction()
        return
    traces = workload == "figures"
    table = golden.load()
    assert golden.check_cli(out, config, table, traces)[1:] == (0, [])
    # (file, comma-separated field whose last digit is altered): the mse of
    # the first reports row, and the measurement in a figure file
    targets = [("reports.csv", 2)]
    if traces:
        targets.append(("figs/" + sorted(p.name for p in (out / "figs").iterdir())[0], 1))
    for target, field in targets:
        bad = tmp_path / target.replace("/", "_")
        shutil.copytree(out, bad)
        path = bad / target
        lines = path.read_text().split("\n")
        fields = lines[1].split(",")
        last = fields[field][-1]
        fields[field] = fields[field][:-1] + ("7" if last != "7" else "3")
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines))
        attempted, failed, problems = golden.check_cli(bad, config, table, traces)
        assert failed == 1 and len(problems) == 1, (target, problems)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_bench(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        assert first["metrics"][name]["unit"] == unit
        if unit in COUNT_UNITS:
            assert first["metrics"][name] == second["metrics"][name], name
    calls = first["metrics"]["rvm_rls.step.calls"]["value"]
    assert calls > 0
    if workload != "stream":
        assert first["metrics"]["bench.timing.runs_per_pair"]["value"] == 4
        assert first["metrics"]["bench.timing.steps_per_run"]["value"] == 400


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("stream", 0, cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
