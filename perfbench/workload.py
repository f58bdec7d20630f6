"""One benchmark workload call, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/workload.py REQUEST.json``. The request names the
workload and where to write the result. Only the standard library is
imported before the timed set-up, so ``setup_s`` includes the full cost of
``import terrafilter`` (and numpy behind it).

Kinds of request:

* ``setup``: time the set-up alone and exit.
* ``cli`` (``matrix``, ``figures``): set-up, then one ``terrafilter.cli.main
  (["run", ...])`` call, then the golden check of its outputs.
* ``stream``: set-up, then calls of ``PASSES_PER_CALL`` closed-loop passes
  until ``seconds`` have passed (or exactly ``calls`` calls). A pass fits the
  four recursive filters on one ``terrain_outliers`` trace's init window and
  feeds them the rest, sample by sample, in turn; the next sample goes out
  only after every filter has returned. A call's wall time counts the
  sample loops only; synthesis and fitting are set-up.
"""

import contextlib
import io
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED_CONFIG = ROOT / "configs" / "benchmark.json"
FIGURES_CONFIG = HERE / "figures.json"
STREAM_SCENARIO = "terrain_outliers"
STREAM_FILTERS = ("rvm_rls", "rls", "gvff_rls", "lms")
# One stream call is this many traces in a row (one to two seconds), long
# enough to average over a shared host's sub-second speed changes.
PASSES_PER_CALL = 8
# Step latencies go into fixed histograms (10 ns bins up to 1 ms; slower
# steps land in the last bin), so the benchmark's own memory does not grow
# with the run's length and peak_rss_mb stays the program's.
LATENCY_BIN_NS = 10
LATENCY_BINS = 100_000


def shipped_config():
    with open(SHIPPED_CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def figures_config():
    with open(FIGURES_CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def workload_config(workload, seed, seed_count=None):
    """The config a CLI workload runs: the template's seed count, with the
    trace seeds drawn from the golden pool by ``seed``."""
    from golden import POOL

    config = shipped_config() if workload == "matrix" else figures_config()
    count = seed_count or len(config["seeds"])
    config["seeds"] = sorted(random.Random(seed).sample(POOL, count))
    return config


def stream_seeds(seed):
    """Pool seeds in the order the stream workload's passes use them."""
    from golden import POOL

    return random.Random(seed).sample(POOL, len(POOL))


def _stream_scenario():
    from terrafilter.bench import parse_scenario

    entry = next(s for s in shipped_config()["scenarios"]
                 if s["name"] == STREAM_SCENARIO)
    return parse_scenario(entry)


def _stream_filters(scenario):
    from terrafilter import GvffRls, NormalizedLms, RvmRls, StaticRls

    return {
        "rvm_rls": RvmRls(target_noise_variance=scenario.noise_variance),
        "rls": StaticRls(),
        "gvff_rls": GvffRls(),
        "lms": NormalizedLms(),
    }


def stream_reference(seed):
    """Digest of each filter's ``run`` predictions on one pool seed."""
    from golden import sha256
    from terrafilter import synthesize

    scenario = _stream_scenario()
    trace = synthesize(scenario.with_seed(seed))
    return {name: sha256(filt.run(trace.times, trace.measurement).tobytes())
            for name, filt in _stream_filters(scenario).items()}


def _import_src():
    sys.path.insert(0, str(SRC))


def _checked_import():
    import terrafilter

    if Path(terrafilter.__file__).resolve().parent != (SRC / "terrafilter").resolve():
        raise SystemExit(f"terrafilter imported from {terrafilter.__file__}, "
                         f"not from {SRC}")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _out_bytes(out_dir):
    """Bytes of every output file except manifest.json, whose timestamps and
    durations make its length vary from run to run."""
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*")
               if p.is_file() and p.name != "manifest.json")


# -- set-up --------------------------------------------------------------


def setup_cli(config_path):
    t0 = time.perf_counter()
    _import_src()
    import terrafilter.cli  # noqa: F401  (the import is what is timed)
    from terrafilter.bench import load_config

    load_config(config_path)
    elapsed = time.perf_counter() - t0
    _checked_import()
    return elapsed


def setup_stream(seed):
    t0 = time.perf_counter()
    _import_src()
    from terrafilter import synthesize

    scenario = _stream_scenario()
    trace = synthesize(scenario.with_seed(seed))
    for filt in _stream_filters(scenario).values():
        n0 = filt.init_window
        filt.fit(trace.times[:n0], trace.measurement[:n0])
    elapsed = time.perf_counter() - t0
    _checked_import()
    return elapsed


# -- workload calls ------------------------------------------------------


def run_cli(req):
    setup_s = setup_cli(req["config_path"])
    import golden
    import terrafilter.cli as cli

    out = Path(req["out_dir"])
    if out.exists():
        shutil.rmtree(out)
    argv = ["run", req["config_path"], "--out", str(out)]
    if not req["traces"]:
        argv.append("--no-traces")
    tracer = _tracer(req)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                rc = cli.main(argv)
        wall = time.perf_counter() - t0
    peak = _peak_rss_mb()
    config = json.loads(Path(req["config_path"]).read_text(encoding="utf-8"))
    attempted, failed, problems = golden.check_cli(
        out, config, golden.load(), req["traces"])
    if rc != 0:
        problems.append(f"terrafilter run exited with {rc}")
    result = {"setup_s": setup_s, "wall_s": [wall], "peak_rss_mb": peak,
              "attempted": attempted, "failed": failed, "problems": problems,
              "out_bytes": _out_bytes(out)}
    return _finish_trace(tracer, req, result)


def _stream_pass(seed, scenario, synthesize, hists, failed_steps):
    """Feed one trace through every filter; return (wall_s, predictions).
    Each step's latency is counted in its filter's histogram. A filter whose
    step raises is dropped for the rest of the pass and its remaining steps
    are counted in ``failed_steps``."""
    trace = synthesize(scenario.with_seed(seed))
    filters = _stream_filters(scenario)
    n0 = filters["rvm_rls"].init_window
    for filt in filters.values():
        filt.fit(trace.times[:n0], trace.measurement[:n0])
    times = trace.times.tolist()
    values = trace.measurement.tolist()
    n = len(times)
    preds = {name: [0.0] * (n - n0) for name in filters}
    live = [(name, filters[name].step, preds[name], hists[name])
            for name in STREAM_FILTERS]
    top = LATENCY_BINS - 1
    clock = time.perf_counter_ns
    t0 = time.perf_counter()
    for j in range(n0, n):
        t = times[j]
        y = values[j]
        k = j - n0
        for name, step, out, hist in live:
            start = clock()
            try:
                p = step(t, y)
            except Exception:  # a raising step is a counted failure
                failed_steps[name] += n - j
                live = [e for e in live if e[0] != name]
                continue
            hist[min((clock() - start) // LATENCY_BIN_NS, top)] += 1
            out[k] = p
    wall = time.perf_counter() - t0
    return wall, preds


def _percentiles_us(hist):
    """Sample count, p50 and p99 (bin centres, in microseconds) of a
    latency histogram."""
    import numpy as np

    cumulative = np.cumsum(hist)
    n = int(cumulative[-1])
    out = {"n": n}
    for key, q in (("p50_us", 0.50), ("p99_us", 0.99)):
        i = int(np.searchsorted(cumulative, q * n)) if n else 0
        out[key] = (i + 0.5) * LATENCY_BIN_NS / 1e3
    return out


def run_stream(req):
    seeds = req["stream_seeds"]
    setup_s = setup_stream(seeds[0])
    import numpy as np

    import golden
    from terrafilter import synthesize

    scenario = _stream_scenario()
    tracer = _tracer(req)
    if tracer is not None:
        synthesize = tracer.wrap("scenario.synthesize", synthesize)
    hists = {name: [0] * LATENCY_BINS for name in STREAM_FILTERS}
    passes = []
    walls = []
    deadline = time.perf_counter() + req.get("seconds", 0.0)
    while True:
        wall = 0.0
        for _ in range(PASSES_PER_CALL):
            seed = seeds[len(passes) % len(seeds)]
            failed = {name: 0 for name in STREAM_FILTERS}
            with (tracer.span("stream.pass") if tracer
                  else contextlib.nullcontext()):
                pass_wall, preds = _stream_pass(seed, scenario, synthesize,
                                                hists, failed)
            wall += pass_wall
            n = len(preds["rvm_rls"])
            passes.append({
                "seed": seed,
                "steps": {name: n for name in STREAM_FILTERS},
                "failed": failed,
                "digests": {name: golden.sha256(np.array(preds[name]).tobytes())
                            for name in STREAM_FILTERS},
            })
        walls.append(wall)
        if "calls" in req:
            if len(walls) >= req["calls"]:
                break
        elif time.perf_counter() >= deadline:
            break
    peak = _peak_rss_mb()
    attempted, failed, problems = golden.check_stream(passes, golden.load())
    steps = {name: _percentiles_us(hist) for name, hist in hists.items()}
    result = {"setup_s": setup_s, "wall_s": walls, "peak_rss_mb": peak,
              "attempted": attempted, "failed": failed, "problems": problems,
              "steps": steps, "out_bytes": 0}
    return _finish_trace(tracer, req, result)


def _tracer(req):
    if not req.get("trace"):
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, req, result):
    if tracer is not None:
        tracer.restore()
        tracer.write(req["spans_path"])
        result["per_layer"] = tracer.summary()
    return result


def main(argv):
    req = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    kind = req["kind"]
    if kind == "setup":
        if req["workload"] == "stream":
            result = {"setup_s": setup_stream(req["stream_seeds"][0])}
        else:
            result = {"setup_s": setup_cli(req["config_path"])}
    elif kind == "cli":
        result = run_cli(req)
    else:
        result = run_stream(req)
    Path(req["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
