"""Experiment orchestration: seeded scenario x algorithm x seed matrices,
metric reports, timing, and plot-ready data files.
"""

import hashlib
import json
import os
import re
import time
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from . import __version__
from .base import Seed, _outcome, check_numbers, describe, is_finite_number
from .baselines import BootstrapParticleFilter, GvffRls, NormalizedLms, StaticRls
from .exceptions import ConfigError, InvalidInputError
from .metrics import (MetricsReport, aggregate_csv, max_error, mse, reports_to_csv,
                      time_step, variance_ratio)
from .rvm_rls import RvmRls
from .scenario import TRACE_HEADER, ScenarioConfig, format_column, synthesize, write_columns
# write_trace_csv stays a module global here: perfbench's tracer patches it
from .scenario import write_trace_csv  # noqa: F401

FILTER_KINDS = {
    "rvm_rls": RvmRls,
    "rls": StaticRls,
    "lms": NormalizedLms,
    "gvff_rls": GvffRls,
    "pf": BootstrapParticleFilter,
}

CONFIG_VERSION = 1
_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named filter recipe: ``params`` are constructor arguments, typed
    by the filter's field annotations; a target_noise_variance of "scenario"
    is each scenario's true noise variance at run time."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    __post_init__ = check_numbers


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment matrix, checked when built: by ``check_numbers``, then
    what the field types cannot. Each algorithm's filter is built as
    ``build_filter`` builds it and checked by its ``_validate_params``."""

    scenarios: tuple[ScenarioConfig, ...]
    algorithms: tuple[AlgorithmSpec, ...]
    seeds: tuple[Seed, ...]
    output_dir: str = "bench_out"
    emit_traces: bool = True

    def __post_init__(self):
        check_numbers(self)
        if not self.scenarios or not self.algorithms or not self.seeds:
            raise ConfigError("config: scenarios, algorithms, and seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(
                f"config.seeds: seeds must be distinct, got {describe(self.seeds)}")
        for i, scenario in enumerate(self.scenarios):
            if scenario.seed != 0:
                raise ConfigError(f"config.scenarios[{i}].seed: each cell's trace is "
                                  "synthesized with its seed from config.seeds")
            if scenario.noise_variance == 0:  # a ScenarioConfig alone may be noise-free
                raise ConfigError(f"config.scenarios[{i}].noise_variance: each cell's variance "
                                  "ratio divides by it, so a run needs it positive, "
                                  f"got {describe(scenario.noise_variance)}")
        for key in ("scenarios", "algorithms"):
            names = [item.name for item in getattr(self, key)]
            if len(set(names)) != len(names) or not all(map(_NAME_RE.fullmatch, names)):
                raise ConfigError(
                    f"config.{key}: names must be unique and filesystem-safe, got {names}")
        for i, spec in enumerate(self.algorithms):
            path = f"config.algorithms[{i}]"
            cls = FILTER_KINDS.get(spec.kind)
            if cls is None:
                raise ConfigError(f"{path}.kind: unknown algorithm kind {spec.kind!r}")
            if spec.kind == "pf" and "seed" in spec.params:
                raise ConfigError(f"{path}.params.seed: the particle filter is "
                                  "seeded with each cell's trace seed")
            for scenario in self.scenarios:
                params = _filter_params(spec, scenario)
                try:
                    _build(params, cls, f"{path}.params")._validate_params()
                except InvalidInputError as exc:
                    raise ConfigError(f"{path}.params: {exc}") from exc


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


def _filter_params(spec: AlgorithmSpec, cell: ScenarioConfig) -> dict:
    """One cell's constructor arguments, from the config of its trace."""
    params = dict(spec.params)
    if params.get("target_noise_variance") == "scenario":
        params["target_noise_variance"] = cell.noise_variance
    if spec.kind == "pf":
        params["seed"] = cell.seed
    return params


def build_filter(spec: AlgorithmSpec, cell: ScenarioConfig):
    """Instantiate the filter for one cell of a validated config, from the
    config ``cell`` of its trace, shaped by ``_build`` as the config check shaped it."""
    return _build(_filter_params(spec, cell), FILTER_KINDS[spec.kind],
                  f"{spec.name}.params")


# -- configuration files: the dataclasses are the schema ------------------


def _expect(ok: bool, path: str, expected: str, value) -> None:
    if not ok:
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _build(value, tp, path: str):
    """Shape parsed JSON as the annotated type ``tp``: ``T | None``, a list
    as a ``tuple[T, ...]`` or as a tuple of its length, a finite number as
    a float where ``tp`` is float, and an object as a dataclass of its
    keys, none unknown or missing. Any other value is left for the
    dataclass holding it to check, whose InvalidInputError becomes a
    ConfigError naming its path."""
    tp = typing.get_args(tp)[0] if typing.get_origin(tp) is typing.Annotated else tp
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):  # ``T | None``
        return None if value is None else _build(value, args[0], path)
    if origin is tuple and args[-1] is Ellipsis and isinstance(value, list):
        return tuple(_build(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(_build(v, a, f"{path}[{i}]")
                     for i, (v, a) in enumerate(zip(value, args)))
    if tp is float and is_finite_number(value):
        return float(value)
    if not (is_dataclass(tp) and isinstance(value, dict)):
        return value
    params = {f.name: f for f in fields(tp)}
    errors = [f"{path}.{k}: unknown key" for k in sorted(set(value) - set(params), key=str)]
    errors += [f"{path}.{k}: missing" for k, f in params.items()
               if k not in value and f.default is f.default_factory is MISSING]
    if errors:
        raise ConfigError("; ".join(errors))
    try:
        return tp(**{k: _build(v, params[k].type, f"{path}.{k}") for k, v in value.items()})
    except InvalidInputError as exc:  # a dataclass's __post_init__ checks
        raise ConfigError(f"{path}: {exc}") from exc


def read_json(path):
    """Parse a JSON file; a file that is not UTF-8 JSON, or nests too deep
    to parse, is a ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def parse_scenario(d: dict) -> ScenarioConfig:
    return _build(d, ScenarioConfig, "scenario")


def load_config(path) -> ExperimentConfig:
    """Parse a versioned JSON experiment config into the ExperimentConfig
    that checks it; its dataclasses are the schema."""
    raw = read_json(path)
    _expect(isinstance(raw, dict), "config", "an object", raw)
    version = raw.pop("version", None)
    _expect(type(version) is int and version == CONFIG_VERSION, "config.version",
            str(CONFIG_VERSION), version)
    return _build(raw, ExperimentConfig, "config")


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


def run_cells(spec: AlgorithmSpec, traces) -> list:
    """Run one algorithm's cell on each trace, named by the trace's config.
    Returns, per trace, ``(report_without_sr, columns)`` or the exception
    the cell failed with; ``columns`` are the cell's ``run_detailed``
    columns: ``prediction``, and for RvmRls the fig4 columns. Cells whose
    filters are built alike (every algorithm but the particle filter, whose
    seed is the cell's) run as one ``run_lockstep_detailed`` call; the
    others each run their own filter."""
    params = [_filter_params(spec, trace.config) for trace in traces]
    if all(p == params[0] for p in params):
        outcomes = build_filter(spec, traces[0].config).run_lockstep_detailed(
            [trace.times for trace in traces], [trace.measurement for trace in traces])
    else:
        outcomes = [_outcome(build_filter(spec, trace.config).run_detailed,
                             trace.times, trace.measurement) for trace in traces]
    return [outcome if isinstance(outcome, Exception) else
            _outcome(_cell_report, spec, trace, outcome)
            for trace, outcome in zip(traces, outcomes)]


def _cell_report(spec, trace, columns):
    predictions = columns["prediction"]
    ref = trace.reference[len(trace) - len(predictions):]
    return MetricsReport(
        algorithm=spec.name,
        sr_ms=0.0,
        mse=mse(predictions, ref),
        vr=variance_ratio(predictions, ref, trace.config.noise_variance),
        me=max_error(predictions, ref),
        scenario_id=trace.config.name,
        seed=trace.config.seed,
    ), columns


def run_cell(spec: AlgorithmSpec, trace):
    """One cell: ``run_cells`` on a single trace, raising the cell's
    error."""
    outcome = run_cells(spec, [trace])[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _error_status(scenario_id, algorithm, seed, exc, prefix=""):
    """The manifest entry of a cell, job or timing run that raised ``exc``."""
    return CellStatus(scenario_id, algorithm, seed, "error",
                      error=f"{prefix}{type(exc).__name__}: {exc}")


def _run_chunk(scenario: ScenarioConfig, seeds, algorithms, out_dir=None):
    """One pool job: synthesize the traces of ``seeds`` and run every
    algorithm's cells on them. With ``out_dir`` set, also write each
    seed's trace and figure files there. Returns ``{(scenario name,
    algorithm name, seed): (CellStatus, MetricsReport or None)}``; a
    failing cell is recorded without disturbing the others. A cell's
    ``duration_ms`` is its algorithm's wall time over the chunk divided by
    the number of seeds. Traces and columns stay in the worker."""
    traces = [synthesize(scenario.with_seed(seed)) for seed in seeds]
    results = {}
    columns = {seed: {} for seed in seeds}
    for spec in algorithms:
        t0 = time.perf_counter()
        try:
            cells = run_cells(spec, traces)
        except Exception as exc:  # crash isolation: one bad algorithm never aborts the run
            cells = [exc] * len(seeds)
        duration_ms = (time.perf_counter() - t0) * 1e3 / len(seeds)
        for seed, cell in zip(seeds, cells):
            if isinstance(cell, Exception):
                status, report = _error_status(scenario.name, spec.name, seed, cell), None
            else:
                report, columns[seed][spec.name] = cell
                status = CellStatus(scenario.name, spec.name, seed, "ok")
            status.duration_ms = duration_ms
            results[(scenario.name, spec.name, seed)] = status, report
    if out_dir is not None:
        fig4 = next((a.name for a in algorithms if a.kind == "rvm_rls"), None)
        # synthesis makes these three from the scenario alone, so every
        # seed of the job has the same ones
        shared = [format_column(getattr(traces[0], key))
                  for key in ("times", "terrain", "reference")]
        for seed, trace in zip(seeds, traces):
            _emit_trace_files(out_dir, trace, columns[seed], fig4, shared)
    return results


def _usable_cpus() -> int:
    """The CPUs this process may run on, so that taskset limits the pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _seed_chunks(seeds, count):
    """``seeds`` split in order into ``count`` near-equal chunks (fewer when
    there are fewer seeds)."""
    count = min(count, len(seeds))
    return [seeds[i * len(seeds) // count:(i + 1) * len(seeds) // count]
            for i in range(count)]


def _run_jobs(config: ExperimentConfig, out_dir):
    """Run the matrix on a process pool with one worker per usable CPU, as
    one job per (scenario, chunk of seeds): each scenario's seeds split
    into ceil(CPUs / scenarios) chunks, the fewest jobs that keep every
    worker busy, so each lockstep batch is as wide as it can be. Returns
    ``_run_chunk``'s map for every cell of the matrix. A job that raises,
    or whose worker dies, gets an ``error`` status for each of its cells;
    the other jobs' cells are kept."""
    # imported here so that importing the CLI does not pay for multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cpus = _usable_cpus()
    chunks = -(-cpus // len(config.scenarios))
    jobs = [(scenario, seeds) for scenario in config.scenarios
            for seeds in _seed_chunks(config.seeds, chunks)]
    emit_dir = out_dir if config.emit_traces else None
    results = {}
    with ProcessPoolExecutor(max_workers=min(cpus, len(jobs))) as pool:
        futures = [pool.submit(_run_chunk, scenario, seeds, config.algorithms, emit_dir)
                   for scenario, seeds in jobs]
        for (scenario, seeds), future in zip(jobs, futures):
            try:
                results.update(future.result())
            except Exception as exc:  # a lost job fails its cells, not the run
                results.update(
                    ((scenario.name, spec.name, seed),
                     (_error_status(scenario.name, spec.name, seed, exc), None))
                    for spec in config.algorithms for seed in seeds)
    return results


def run_experiments(config: ExperimentConfig) -> RunManifest:
    """Execute the full matrix and write reports, aggregates, traces,
    figure data, and the manifest into ``config.output_dir``.

    Metric cells run on a process pool, one job per (scenario, chunk of
    seeds) and one worker per usable CPU (``taskset`` limits them); a job
    runs each recursive filter over its seeds in lockstep. After the pool has
    shut down, single-step timing runs serially, one measurement per
    (algorithm, scenario), shared by that scenario's seed rows. A failing
    cell, job or timing measurement is recorded in the manifest without
    disturbing the others.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.emit_traces:
        (out / "traces").mkdir(exist_ok=True)
        (out / "figs").mkdir(exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    results = _run_jobs(config, out)

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
                    build_filter(spec, trace.config), trace)
                status = CellStatus(scenario.name, spec.name, seed, "ok")
            except Exception as exc:  # recorded; the row's sr_ms becomes NaN
                status = _error_status(scenario.name, spec.name, seed, exc, "timing: ")
            status.duration_ms = (time.perf_counter() - t0) * 1e3
            timing.append(status)

    reports = [report for _, (_, report) in sorted(results.items()) if report is not None]
    for report in reports:
        report.sr_ms = sr.get((report.scenario_id, report.algorithm), float("nan"))
    (out / "reports.csv").write_text(reports_to_csv(reports), encoding="utf-8")
    (out / "aggregate.csv").write_text(
        aggregate_csv(reports), encoding="utf-8")

    finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest = RunManifest(
        config_hash=config_hash(config),
        tool_version=__version__,
        started=started,
        finished=finished,
        cells=[results[(scenario.name, spec.name, seed)][0]
               for scenario in config.scenarios for spec in config.algorithms
               for seed in config.seeds],
        timing=timing,
    )
    (out / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2),
                                       encoding="utf-8")
    return manifest


def _emit_trace_files(out, trace, columns, fig4, shared):
    """One trace's csv plus plot-ready figure files from ``columns``, the
    columns of each of its successful cells by algorithm name: the
    diagnostic columns of the ``fig4`` algorithm's cell (adaptive lambda
    and variance series) when that cell succeeded, overlaid predictions,
    errors. ``shared`` is the text of ``times``, ``terrain`` and
    ``reference``, which the job formats once; each other column is
    formatted once for all the files that write it."""
    figs_dir = Path(out) / "figs"
    name = f"{trace.config.name}_{trace.config.seed}.csv"
    t, H, p = shared
    z = format_column(trace.measurement)
    write_columns(Path(out) / "traces" / f"trace_{name}", TRACE_HEADER,
                  [t, H, p, z, format_column(trace.outlier_mask)])

    preds = {algorithm: c["prediction"] for algorithm, c in columns.items()}
    pred_text = {algorithm: format_column(c) for algorithm, c in preds.items()}
    diagnostics = columns.get(fig4)
    if diagnostics is not None:
        k = len(trace) - len(preds[fig4])
        write_columns(figs_dir / f"fig4_{name}", ["t", "z", "p", *diagnostics],
                      [t[k:], z[k:], p[k:],
                       *(pred_text[fig4] if key == "prediction" else format_column(c)
                         for key, c in diagnostics.items())])

    if not columns:
        return
    # the rows every algorithm predicted: each one's last `common` samples
    common = min(len(c) for c in preds.values())
    k = len(trace) - common
    reference = trace.reference[k:]
    write_columns(figs_dir / f"fig5_{name}",
                  ["t", "z", "p"] + [f"pred_{a}" for a in preds],
                  [t[k:], z[k:], p[k:]] + [text[len(text) - common:]
                                           for text in pred_text.values()])
    write_columns(figs_dir / f"fig6_{name}",
                  ["t"] + [f"err_{a}" for a in preds],
                  [t[k:]] + [format_column(c[len(c) - common:] - reference)
                             for c in preds.values()])
