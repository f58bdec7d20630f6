"""Golden digests of terrafilter's outputs, and the checks against them.

Every workload draws its trace seeds from a fixed pool (``POOL``), and every
output the benchmark checks depends on one trace seed only, so the committed
digests cover any ``--seed`` the benchmark is given:

* ``reports``: sha256 of each ``reports.csv`` row with the wall-clock
  ``sr_ms`` column removed, keyed ``scenario/algorithm/seed``. The ``matrix``
  and ``figures`` workloads share these rows (same scenarios and filters).
* ``files``: sha256 of each per-seed file the ``figures`` workload writes
  under ``figs/`` and ``traces/``.
* ``stream``: sha256 of each filter's float64 prediction array over the
  ``terrain_outliers`` trace of a pool seed.

Regenerate (a few minutes, single process) with
``python3 perfbench/golden.py --write``; any regeneration is a change of
the program's outputs and must be explained where it is committed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
POOL = list(range(40))
REPORT_HEADER = "algorithm,mse,vr,me,scenario_id,seed"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _report_rows(out_dir):
    """(header, [(key, digest)]) of reports.csv with sr_ms stripped."""
    lines = (Path(out_dir) / "reports.csv").read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        del fields[1]
        algorithm, scenario, seed = fields[0], fields[4], fields[5]
        rows.append((f"{scenario}/{algorithm}/{seed}",
                     sha256(",".join(fields).encode())))
    header = lines[0].split(",") if lines else []
    del header[1:2]
    return ",".join(header), rows


def expected_cells(config):
    """Keys of every (scenario, algorithm, seed) cell, in reports.csv order."""
    return sorted(
        (s["name"], a["name"], seed)
        for s in config["scenarios"] for a in config["algorithms"]
        for seed in config["seeds"])


def expected_files(config):
    return sorted(
        name
        for s in config["scenarios"] for seed in config["seeds"]
        for name in (f"traces/trace_{s['name']}_{seed}.csv",
                     f"figs/fig4_{s['name']}_{seed}.csv",
                     f"figs/fig5_{s['name']}_{seed}.csv",
                     f"figs/fig6_{s['name']}_{seed}.csv"))


def _written_files(out_dir):
    out = Path(out_dir)
    return sorted(str(p.relative_to(out)) for sub in ("figs", "traces")
                  if (out / sub).is_dir() for p in (out / sub).iterdir())


def check_cli(out_dir, config, golden, traces):
    """Check one CLI run's outputs against the digests.

    Returns (attempted, failed, problems): one operation per expected cell
    (manifest status ok and reports row digest equal) and, when the run
    wrote traces, one per expected figure or trace file.
    """
    out = Path(out_dir)
    problems = []
    cells = expected_cells(config)
    keys = [f"{s}/{a}/{seed}" for s, a, seed in cells]
    try:
        header, rows = _report_rows(out)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, IndexError) as exc:
        return len(cells), len(cells), [f"unreadable outputs: {exc}"]
    if header != REPORT_HEADER:
        problems.append(f"reports.csv header {header!r}")
    got = dict(rows)
    if [k for k, _ in rows] != [k for k in keys if k in got]:
        problems.append("reports.csv rows out of order")
    status = {f"{c['scenario_id']}/{c['algorithm']}/{c['seed']}": c["status"]
              for c in manifest["cells"]}
    failed = 0
    for key in keys:
        if status.get(key) != "ok":
            problems.append(f"cell {key}: status {status.get(key)}")
        elif got.get(key) != golden["reports"].get(key):
            problems.append(f"cell {key}: reports row differs from golden")
        else:
            continue
        failed += 1
    extra = sorted(set(got) - set(keys))
    problems += [f"unexpected reports row {k}" for k in extra]
    failed += len(extra)
    attempted = len(keys)

    if traces:
        files = expected_files(config)
        attempted += len(files)
        for name in files:
            path = out / name
            digest = sha256(path.read_bytes()) if path.is_file() else None
            if digest != golden["files"].get(name.split("/", 1)[1]):
                problems.append(f"file {name} differs from golden")
                failed += 1
        extra = sorted(set(_written_files(out)) - set(files))
        problems += [f"unexpected file {name}" for name in extra]
        failed += len(extra)
    return attempted, failed, problems


def check_stream(passes, golden):
    """Check the stream workload's prediction digests.

    ``passes`` is a list of {"seed", "digests": {filter: sha}, "steps":
    {filter: n}, "failed": {filter: n}}. A step that raised is a failed
    operation; so is every step of a prediction array whose digest differs.
    """
    attempted = failed = 0
    problems = []
    for p in passes:
        want = golden["stream"][str(p["seed"])]
        for name, steps in p["steps"].items():
            attempted += steps
            if p["failed"][name]:
                failed += p["failed"][name]
                problems.append(f"seed {p['seed']} {name}: "
                                f"{p['failed'][name]} steps raised")
            elif p["digests"][name] != want[name]:
                failed += steps
                problems.append(f"seed {p['seed']} {name}: "
                                "predictions differ from golden")
    return attempted, failed, problems


# -- regeneration ------------------------------------------------------------


def _run_cli(config, work):
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = work / "out"
    cmd = [sys.executable, "-m", "terrafilter.cli", "run", str(cfg_path),
           "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
    return out


def regenerate(work):
    import workload

    golden = {"pool": POOL, "reports": {}, "files": {}, "stream": {}}
    matrix = dict(workload.shipped_config(), seeds=POOL, emit_traces=False)
    _, rows = _report_rows(_run_cli(matrix, work / "matrix"))
    golden["reports"] = dict(rows)

    figures = dict(workload.figures_config(), seeds=POOL)
    out = _run_cli(figures, work / "figures")
    _, rows = _report_rows(out)
    for key, digest in rows:
        if golden["reports"][key] != digest:
            raise SystemExit(f"figures row {key} differs from the matrix row")
    for name in _written_files(out):
        golden["files"][name.split("/", 1)[1]] = sha256((out / name).read_bytes())

    sys.path.insert(0, str(ROOT / "src"))
    for seed in POOL:
        golden["stream"][str(seed)] = workload.stream_reference(seed)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="run the pool and rewrite golden.json")
    parser.parse_args()
    regenerate(ROOT / ".perfbench_out" / "golden")


if __name__ == "__main__":
    main()
