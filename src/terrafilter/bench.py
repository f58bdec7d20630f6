"""Experiment orchestration: seeded scenario x algorithm x seed matrices,
metric reports, timing, and plot-ready data files.
"""

import csv
import hashlib
import io
import json
import os
import re
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BootstrapParticleFilter, GvffRls, NormalizedLms, StaticRls
from .exceptions import ConfigError, InvalidInputError
from .metrics import (MetricsReport, max_error, mse, reports_to_csv, time_step,
                      variance_ratio)
from .rvm_rls import RvmRls
from .scenario import (ScenarioConfig, TerrainParams, synthesize, write_columns,
                       write_trace_csv)

FILTER_KINDS = {
    "rvm_rls": RvmRls,
    "rls": StaticRls,
    "lms": NormalizedLms,
    "gvff_rls": GvffRls,
    "pf": BootstrapParticleFilter,
}

CONFIG_VERSION = 1
TIMED_STEPS = 400
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named filter construction recipe. ``params`` are constructor
    arguments; the value "scenario" for target_noise_variance resolves to
    each scenario's true noise variance at run time."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    scenarios: list
    algorithms: list
    seeds: list
    output_dir: str = "bench_out"
    emit_traces: bool = True

    def validate(self):
        if not self.scenarios or not self.algorithms or not self.seeds:
            raise ConfigError("scenarios, algorithms, and seeds must be non-empty")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ConfigError("algorithm names must be unique")
        scen_names = [s.name for s in self.scenarios]
        if len(set(scen_names)) != len(scen_names):
            raise ConfigError("scenario names must be unique")
        for name in names + scen_names:
            if not _NAME_RE.match(name):
                raise ConfigError(f"name {name!r} is not filesystem-safe")
        for a in self.algorithms:
            if a.kind not in FILTER_KINDS:
                raise ConfigError(f"unknown algorithm kind {a.kind!r}")
        return self


@dataclass
class CellStatus:
    scenario_id: str
    algorithm: str
    seed: int
    status: str
    error: str = ""
    duration_ms: float = 0.0


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str
    started: str
    finished: str
    cells: list
    timing: list = field(default_factory=list)

    @property
    def failed(self):
        return [c for c in self.cells if c.status != "ok"]

    @property
    def timing_failed(self):
        return [c for c in self.timing if c.status != "ok"]


def build_filter(spec: AlgorithmSpec, scenario: ScenarioConfig, seed: int):
    """Instantiate the filter for one cell, resolving per-scenario params."""
    params = dict(spec.params)
    if params.get("target_noise_variance") == "scenario":
        params["target_noise_variance"] = scenario.noise_variance
    cls = FILTER_KINDS[spec.kind]
    if spec.kind == "pf":
        params["seed"] = seed
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad params for algorithm {spec.name!r}: {exc}") from exc


def default_experiment_config(output_dir: str = "bench_out",
                              seeds=tuple(range(10))) -> ExperimentConfig:
    """The benchmark matrix: the default terrain with and without outliers,
    all five algorithms, ten seeds."""
    base = ScenarioConfig(name="terrain_outliers", outlier_fraction=0.10)
    clean = replace(base, name="terrain_clean", outlier_fraction=0.0)
    algorithms = [
        AlgorithmSpec("rvm_rls", "rvm_rls", {"target_noise_variance": "scenario"}),
        AlgorithmSpec("rls", "rls", {}),
        AlgorithmSpec("lms", "lms", {}),
        AlgorithmSpec("gvff_rls", "gvff_rls", {}),
        AlgorithmSpec("pf", "pf", {}),
    ]
    return ExperimentConfig(
        scenarios=[base, clean],
        algorithms=algorithms,
        seeds=list(seeds),
        output_dir=output_dir,
    ).validate()


# -- configuration files -------------------------------------------------


def _take(mapping: dict, allowed: dict, context: str) -> dict:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")
    out = {}
    for key, caster in allowed.items():
        if key in mapping:
            out[key] = caster(mapping[key]) if caster else mapping[key]
    return out


def parse_scenario(d: dict) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise ConfigError("each scenario must be an object")
    terrain_d = d.get("terrain", {})
    terrain = TerrainParams(**_take(terrain_d, {
        "amplitude": float, "center": float, "envelope_sigma": float,
        "omega": float, "phase": float,
    }, "scenario.terrain"))
    kwargs = _take(d, {
        "name": str, "sample_count": int, "clearance": float,
        "noise_variance": float, "outlier_fraction": float,
        "outlier_band": lambda v: tuple(float(x) for x in v),
        "clean_prefix": int, "seed": int, "terrain": None,
    }, "scenario")
    kwargs.pop("terrain", None)
    return ScenarioConfig(terrain=terrain, **kwargs)


def _parse_algorithm(d: dict) -> AlgorithmSpec:
    if not isinstance(d, dict):
        raise ConfigError("each algorithm must be an object")
    kwargs = _take(d, {"name": str, "kind": str, "params": None}, "algorithm")
    if "name" not in kwargs or "kind" not in kwargs:
        raise ConfigError("algorithm entries need 'name' and 'kind'")
    params = kwargs.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ConfigError("algorithm params must be an object")
    return AlgorithmSpec(kwargs["name"], kwargs["kind"], params)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a versioned JSON experiment config. Unknown keys
    anywhere are errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"config version must be {CONFIG_VERSION}, got {raw.get('version')!r}"
        )
    top = _take(raw, {
        "version": int, "output_dir": str, "emit_traces": bool,
        "seeds": list, "scenarios": None, "algorithms": None,
    }, "config")
    scenarios = [parse_scenario(s) for s in top.get("scenarios", [])]
    algorithms = [_parse_algorithm(a) for a in top.get("algorithms", [])]
    cfg = ExperimentConfig(
        scenarios=scenarios,
        algorithms=algorithms,
        seeds=[int(s) for s in top.get("seeds", [])],
        output_dir=top.get("output_dir", "bench_out"),
        emit_traces=top.get("emit_traces", True),
    )
    return cfg.validate()


def config_hash(config: ExperimentConfig) -> str:
    """Content hash of the semantic configuration; key order never matters
    because the canonical form sorts keys."""
    payload = {
        "version": CONFIG_VERSION,
        "seeds": list(config.seeds),
        "scenarios": [asdict(s) for s in config.scenarios],
        "algorithms": [asdict(a) for a in config.algorithms],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- execution ------------------------------------------------------------


def run_cell(spec: AlgorithmSpec, scenario: ScenarioConfig, seed: int, trace,
             detailed: bool = False):
    """Run one filter over one trace; returns ``(report_without_sr,
    predictions, outputs)``. With ``detailed`` (RvmRls only) the single pass
    also collects every step's ``StepOutput`` in ``outputs``; otherwise
    ``outputs`` is None."""
    filt = build_filter(spec, scenario, seed)
    if detailed:
        outputs = filt.run_detailed(trace.times, trace.measurement)
        predictions = np.array([o.prediction for o in outputs], dtype=float)
    else:
        outputs = None
        predictions = filt.run(trace.times, trace.measurement)
    ref = trace.reference[filt.init_window:]
    return MetricsReport(
        algorithm=spec.name,
        sr_ms=0.0,
        mse=mse(predictions, ref),
        vr=variance_ratio(predictions, ref, scenario.noise_variance),
        me=max_error(predictions, ref),
        scenario_id=scenario.name,
        seed=seed,
    ), predictions, outputs


def _run_pair(scenario: ScenarioConfig, seed: int, algorithms, out_dir=None):
    """One pool job: synthesize the (scenario, seed) trace and run every
    algorithm's cell on it once. With ``out_dir`` set, also write the pair's
    trace and figure files there. Returns ``[(CellStatus, MetricsReport or
    None)]`` in algorithm order; a failing cell is recorded without
    disturbing the others. Traces and predictions stay in the worker."""
    trace = synthesize(scenario.with_seed(seed))
    detailed = None
    if out_dir is not None:
        detailed = next((a for a in algorithms if a.kind == "rvm_rls"), None)
    results = []
    preds = {}
    outputs = None
    for spec in algorithms:
        t0 = time.perf_counter()
        try:
            report, preds[spec.name], cell_outputs = run_cell(
                spec, scenario, seed, trace, detailed=spec is detailed)
            status = CellStatus(scenario.name, spec.name, seed, "ok")
        except Exception as exc:  # crash isolation: one bad cell never aborts the run
            report = None
            status = CellStatus(scenario.name, spec.name, seed, "error",
                                error=f"{type(exc).__name__}: {exc}")
        else:
            if spec is detailed:
                outputs = cell_outputs
        status.duration_ms = (time.perf_counter() - t0) * 1e3
        results.append((status, report))
    if out_dir is not None:
        _emit_trace_files(out_dir, scenario, seed, trace, preds, outputs)
    return results


def _run_pairs(config: ExperimentConfig, out_dir):
    """Run every (scenario, seed) job on a process pool with one worker per
    usable CPU; returns {(scenario name, seed): _run_pair's result}. A job
    lost to a dead worker gets an ``error`` status for each of its cells."""
    # imported here so that importing the CLI does not pay for multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pairs = [(scenario, seed) for scenario in config.scenarios
             for seed in config.seeds]
    # the CPUs this process may run on, so that taskset limits the pool
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    emit_dir = out_dir if config.emit_traces else None
    results = {}
    with ProcessPoolExecutor(max_workers=min(cpus, len(pairs))) as pool:
        futures = [pool.submit(_run_pair, scenario, seed, config.algorithms, emit_dir)
                   for scenario, seed in pairs]
        for (scenario, seed), future in zip(pairs, futures):
            try:
                results[(scenario.name, seed)] = future.result()
            except BrokenProcessPool as exc:
                error = f"{type(exc).__name__}: {exc}"
                results[(scenario.name, seed)] = [
                    (CellStatus(scenario.name, spec.name, seed, "error", error=error),
                     None)
                    for spec in config.algorithms]
    return results


def run_experiments(config: ExperimentConfig, out_dir=None) -> RunManifest:
    """Execute the full matrix and write reports, aggregates, traces,
    figure data, and the manifest into the output directory.

    Metric cells run on a process pool, one job per (scenario, seed) and
    one worker per usable CPU (``taskset`` limits them). After the pool has
    shut down, single-step timing runs serially, one measurement per
    (algorithm, scenario), shared by that scenario's seed rows. A failing
    cell or timing measurement is recorded in the manifest without
    disturbing the others.
    """
    config.validate()
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.emit_traces:
        (out / "traces").mkdir(exist_ok=True)
        (out / "figs").mkdir(exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    results = _run_pairs(config, out)
    statuses = []
    cells = {}
    for scenario in config.scenarios:
        for i, spec in enumerate(config.algorithms):
            for seed in config.seeds:
                status, report = results[(scenario.name, seed)][i]
                statuses.append(status)
                if report is not None:
                    cells[(scenario.name, spec.name, seed)] = report

    # Timing: serial, one measurement per (algorithm, scenario), reused for
    # every seed row of that scenario.
    sr = {}
    timing = []
    seed = config.seeds[0]
    for scenario in config.scenarios:
        trace = synthesize(scenario.with_seed(seed))
        for spec in config.algorithms:
            t0 = time.perf_counter()
            try:
                sr[(scenario.name, spec.name)] = time_step(
                    lambda spec=spec, scenario=scenario: build_filter(
                        spec, scenario, seed),
                    trace, timed_steps=TIMED_STEPS,
                )
                status = CellStatus(scenario.name, spec.name, seed, "ok")
            except Exception as exc:  # recorded; the row's sr_ms becomes NaN
                status = CellStatus(scenario.name, spec.name, seed, "error",
                                    error=f"timing: {type(exc).__name__}: {exc}")
            status.duration_ms = (time.perf_counter() - t0) * 1e3
            timing.append(status)
    for (scenario_name, algorithm, _seed), report in cells.items():
        report.sr_ms = sr.get((scenario_name, algorithm), float("nan"))

    reports = [cells[k] for k in sorted(cells)]
    (out / "reports.csv").write_text(reports_to_csv(reports), encoding="utf-8")
    (out / "aggregate.csv").write_text(
        aggregate_csv(reports), encoding="utf-8")

    finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest = RunManifest(
        config_hash=config_hash(config),
        tool_version=__version__,
        started=started,
        finished=finished,
        cells=statuses,
        timing=timing,
    )
    (out / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2),
                                       encoding="utf-8")
    return manifest


def _emit_trace_files(out, scenario, seed, trace, preds, outputs):
    """One pair's trace csv plus plot-ready figure files: the first RvmRls
    cell's diagnostics (adaptive lambda and variance series) when that cell
    succeeded, overlaid predictions, errors."""
    figs_dir = Path(out) / "figs"
    name = f"{scenario.name}_{seed}.csv"
    write_trace_csv(trace, Path(out) / "traces" / f"trace_{name}")

    if outputs is not None:
        tail = slice(len(trace) - len(outputs), None)
        write_columns(
            figs_dir / f"fig4_{name}",
            ["t", "z", "p", "prediction", "residual", "rejected", "lambda",
             "sigma2_hat"],
            [trace.times[tail], trace.measurement[tail], trace.reference[tail],
             [o.prediction for o in outputs], [o.residual for o in outputs],
             [o.rejected for o in outputs], [o.lambda_after for o in outputs],
             [o.sigma2_hat_after for o in outputs]])

    if not preds:
        return
    # the rows every algorithm predicted: each one's last `common` samples
    common = min(len(p) for p in preds.values())
    tail = slice(len(trace) - common, None)
    reference = trace.reference[tail]
    aligned = [p[len(p) - common:] for p in preds.values()]
    write_columns(figs_dir / f"fig5_{name}",
                  ["t", "z", "p"] + [f"pred_{a}" for a in preds],
                  [trace.times[tail], trace.measurement[tail], reference] + aligned)
    write_columns(figs_dir / f"fig6_{name}",
                  ["t"] + [f"err_{a}" for a in preds],
                  [trace.times[tail]] + [p - reference for p in aligned])


def aggregate_csv(reports) -> str:
    """Per-(scenario, algorithm) medians across seeds, as computed by
    ``median_reports``, with each group's seed count."""
    seeds = Counter((r.scenario_id, r.algorithm) for r in reports)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario_id", "algorithm", "seeds",
                     "median_sr_ms", "median_mse", "median_vr", "median_me"])
    for m in median_reports(reports):
        writer.writerow([
            m.scenario_id,
            m.algorithm,
            seeds[(m.scenario_id, m.algorithm)],
            f"{m.sr_ms:.6f}",
            f"{m.mse:.17g}",
            f"{m.vr:.17g}",
            f"{m.me:.17g}",
        ])
    return buf.getvalue()


def median_reports(reports):
    """Collapse per-seed reports into one median report per
    (scenario, algorithm)."""
    groups = {}
    for r in reports:
        groups.setdefault((r.scenario_id, r.algorithm), []).append(r)
    out = []
    for (scenario_id, algorithm) in sorted(groups):
        rs = groups[(scenario_id, algorithm)]
        out.append(MetricsReport(
            algorithm=algorithm,
            sr_ms=float(np.median([r.sr_ms for r in rs])),
            mse=float(np.median([r.mse for r in rs])),
            vr=float(np.median([r.vr for r in rs])),
            me=float(np.median([r.me for r in rs])),
            scenario_id=scenario_id,
            seed=-1,
        ))
    return out


def render_table(reports) -> str:
    """Fixed-column text table for one scenario: algorithms as rows,
    SR/MSE/VR/ME as columns, every per-column minimum flagged with '*'."""
    reports = list(reports)
    if not reports:
        raise InvalidInputError("render_table needs at least one report")
    scenario_ids = {r.scenario_id for r in reports}
    if len(scenario_ids) != 1:
        raise InvalidInputError(f"reports mix scenarios: {sorted(scenario_ids)}")
    algs = [r.algorithm for r in reports]
    if len(set(algs)) != len(algs):
        raise InvalidInputError(
            "one report per algorithm required (aggregate seeds first)"
        )

    cols = [("SR (ms)", "sr_ms", "{:.3f}"), ("MSE", "mse", "{:.3f}"),
            ("VR", "vr", "{:.3f}"), ("ME", "me", "{:.3f}")]
    best = {attr: min(getattr(r, attr) for r in reports) for _, attr, _ in cols}

    header = ["Algorithm"] + [c[0] for c in cols]
    rows = []
    for r in reports:
        row = [r.algorithm]
        for _, attr, fmt in cols:
            val = getattr(r, attr)
            mark = "*" if val == best[attr] else " "
            row.append(fmt.format(val) + mark)
        rows.append(row)

    widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
    lines = [
        f"scenario: {reports[0].scenario_id}",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
