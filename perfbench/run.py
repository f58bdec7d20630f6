"""terrafilter benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload {matrix,figures,stream} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``. Every workload call runs in a fresh single-threaded
process (no ``--workers``), so the numbers measure the program, not the
scheduler. Outputs go to ``.perfbench_out/`` at the checkout root.

Workloads (trace seeds are drawn from the golden pool by ``--seed``):

* ``matrix``: ``configs/benchmark.json`` through ``terrafilter run
  --no-traces``, ten seeds. The particle-filter cells dominate it.
* ``figures``: ``perfbench/figures.json`` (both shipped scenarios, the four
  recursive filters, twenty seeds) with traces and figure files on.
* ``stream``: a closed loop with one client feeding ``terrain_outliers``
  traces sample by sample to ``rvm_rls``, ``rls``, ``gvff_rls`` and ``lms``.

``--trace 0`` measures the end-to-end metrics (``END_TO_END``): ``wall_s``,
the fastest workload call of the run (one ``terrafilter run`` for ``matrix``
and ``figures``, ``workload.PASSES_PER_CALL`` traces for ``stream``);
``setup_s``, the median of several set-ups (import, config or trace, fits)
in fresh processes; ``peak_rss_mb`` of the workload process. ``stream``
also prints per-step latency percentiles per filter. ``--trace 1``
runs the workload once untraced and once with spans recorded at every layer
boundary, and reports the per-layer metrics (``PER_LAYER``) and the tracing
overhead. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every run also writes
a full record (environment, calibration probe, samples) under
``.perfbench_out/records/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workload as wl

ROOT = wl.ROOT
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("matrix", "figures", "stream")
SETUP_SAMPLES = 11
SETUP_BEFORE = 5
STREAM_TRACE_CALLS = 1
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STREAM_ONLY = ("step_us_p50.rvm_rls", "step_us_p99.rvm_rls",
               "step_us_p50.rls", "step_us_p50.gvff_rls", "step_us_p50.lms")


def _per_layer_units():
    from tracing import CALL_SPANS

    units = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
             "trace.overhead_s": "s", "trace.spans": "count"}
    for name in CALL_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "rvm_rls.rejected": "count", "rvm_rls.rejected_ratio": "ratio",
        "baselines.pf.resample.calls": "count",
        "baselines.pf.resample_ratio": "ratio",
        "bench.cells": "count", "bench.cells_s": "s",
        "bench.build_filter.calls": "count",
        "bench.timing_s": "s", "bench.timing.pairs": "count",
        "bench.timing.runs_per_pair": "count",
        "bench.timing.steps_per_run": "count",
        "bench.synthesis_s": "s", "bench.reports_s": "s", "cli.report_s": "s",
        "bench.emit_traces_s": "s", "bench.emit_traces.self_s": "s",
        "bench.out_bytes": "bytes", "bench.steps_per_reported_step": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


# -- environment -----------------------------------------------------------


def calibration_probe_ms():
    """Median of five runs of a fixed mix of interpreter work and small
    numpy products, like one filter step's. Recorded to make a slow host
    mode visible; no metric is rescaled by it."""
    import numpy as np

    L = np.eye(5) * 0.5
    v = np.arange(5.0)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(5_000):
            v = L @ v + 1.0
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine(),
            "cpu_count": os.cpu_count(), "affinity": affinity}


# -- child processes -------------------------------------------------------


def child(req, name):
    """Run one workload.py request in a fresh process; return its result."""
    work = OUT / req["workload"]
    work.mkdir(parents=True, exist_ok=True)
    req = dict(req, result_path=str(work / f"{name}.result.json"))
    req_path = work / f"{name}.request.json"
    req_path.write_text(json.dumps(req), encoding="utf-8")
    Path(req["result_path"]).unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "workload.py"), str(req_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(Path(req["result_path"]).read_text(encoding="utf-8"))


def base_request(workload, seed, seed_count=None):
    work = OUT / workload
    req = {"workload": workload}
    if workload == "stream":
        req["stream_seeds"] = wl.stream_seeds(seed)
        return req
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(
        json.dumps(wl.workload_config(workload, seed, seed_count), indent=1),
        encoding="utf-8")
    req.update(config_path=str(config_path), out_dir=str(work / "out"),
               traces=workload == "figures")
    return req


def measure(base, seconds, trace):
    """The call results of one run; with ``trace``, exactly one untraced
    and one traced call of the same fixed work."""
    if base["workload"] == "stream":
        if trace:
            fixed = dict(base, kind="stream", calls=STREAM_TRACE_CALLS)
            return [child(dict(fixed, trace=False), "untraced"),
                    child(dict(fixed, trace=True,
                               spans_path=str(OUT / "stream" / "spans.bin")),
                          "traced")]
        return [child(dict(base, kind="stream", seconds=seconds), "call")]
    req = dict(base, kind="cli")
    if trace:
        spans = str(OUT / base["workload"] / "spans.bin")
        return [child(dict(req, trace=False), "untraced"),
                child(dict(req, trace=True, spans_path=spans), "traced")]
    calls = []
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        calls.append(child(dict(req, trace=False), f"call{len(calls)}"))
    return calls


def setup_only(base, count):
    return [child(dict(base, kind="setup"), "setup")["setup_s"]
            for _ in range(count)]


# -- metrics ---------------------------------------------------------------


def end_to_end(calls, setups):
    """wall_s is the fastest call of the run. On a shared host the CPU
    speed can switch by up to about 1.8x for seconds to minutes at a time
    (the 2-vCPU KVM guest of ``baseline.json`` did; ``probe_ms`` shows it),
    so a run's median call time mostly measures how long the run spent in
    the slow state, while its fastest call varies far less from run to
    run. Every call time is kept in the record."""
    walls = [w for c in calls for w in c["wall_s"]]
    metrics = {
        "wall_s": min(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
    }
    counts = {"wall_s": len(walls), "setup_s": len(setups),
              "peak_rss_mb": len(calls)}
    if "steps" in calls[0]:
        steps = calls[0]["steps"]
        for name in wl.STREAM_FILTERS:
            metrics[f"step_us_p50.{name}"] = steps[name]["p50_us"]
            counts[f"step_us_p50.{name}"] = steps[name]["n"]
        metrics["step_us_p99.rvm_rls"] = steps["rvm_rls"]["p99_us"]
        counts["step_us_p99.rvm_rls"] = steps["rvm_rls"]["n"]
    return metrics, counts


def per_layer(calls):
    untraced, traced = calls
    layer = dict(traced["per_layer"])
    layer["bench.out_bytes"] = traced["out_bytes"]
    layer["trace.wall_s"] = sum(traced["wall_s"])
    layer["trace.untraced_wall_s"] = sum(untraced["wall_s"])
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
    return layer


def _print_table(title, metrics, units, counts=None):
    print(title)
    for name, value in metrics.items():
        n = f"  (n={counts[name]})" if counts and name in counts else ""
        print(f"  {name:<40} {value:>16.6g} {units.get(name, '')}{n}")


def run(workload, seed, seconds, trace, seed_count=None):
    """Measure one run; return the record (the last stdout line is built
    from it)."""
    env = environment()
    probe = calibration_probe_ms()
    base = base_request(workload, seed, seed_count)
    t0 = time.perf_counter()
    # set-up samples before and after the calls, so that they see the same
    # spread of host speed as the calls do
    setups = [] if trace else setup_only(base, SETUP_BEFORE)
    calls = measure(base, seconds, trace)
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    problems = [p for c in calls for p in c["problems"]]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "probe_ms": probe,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "problems": problems[:50],
              "calls": calls}
    if trace:
        record["metrics"] = per_layer(calls)
        units = PER_LAYER
        counts = None
    else:
        setups += [c["setup_s"] for c in calls]
        setups += setup_only(base, SETUP_SAMPLES - len(setups))
        record["metrics"], counts = end_to_end(calls, setups)
        record["setup_samples"] = setups
        units = dict(END_TO_END, **{m: "us" for m in STREAM_ONLY})
    record["elapsed_s"] = time.perf_counter() - t0
    record["correct"] = not problems

    _print_table(f"workload {workload}, seed {seed}, trace {trace}",
                 record["metrics"], units, counts)
    print(f"  {'fail_ratio':<40} {record['fail_ratio']:>16.6g} ratio"
          f"  ({failed}/{attempted})")
    print(f"  {'probe_ms':<40} {probe:>16.6g} ms")
    print(f"env: {json.dumps(env)}")
    for p in problems[:20]:
        print(f"problem: {p}")
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{workload}-t{trace}-s{seed}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def result_line(record):
    names = PER_LAYER if record["trace"] else END_TO_END
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                        for name, unit in names.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-count", type=int,
                        help="trace seeds per CLI run (default: the config's "
                             "count); the benchmark's own tests use 1")
    args = parser.parse_args(argv)
    missing = [p for p in (wl.SRC / "terrafilter" / "__init__.py",
                           wl.SHIPPED_CONFIG) if not p.is_file()]
    if missing:
        print(f"error: not a terrafilter checkout, missing {missing}",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace,
                     args.seed_count)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
