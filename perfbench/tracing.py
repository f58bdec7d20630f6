"""Outside-in span recorder for the traced benchmark run.

The tracer wraps the names that terrafilter's own callers look up (module
globals such as ``terrafilter.base.poly_basis`` and class attributes such
as ``ForgettingFactorCore._gain_update``), so nothing under ``src/`` is
edited. Spans (name, start, end, parent) are appended to flat arrays while
the workload runs and summarised or written out only after it ends.

This module imports only the standard library at load time, so importing it
does not disturb the timed ``import terrafilter`` of the set-up phase.
"""

import functools
import json
import time
from array import array
from contextlib import contextmanager

# Spans that delimit a phase; a span's phase is its nearest ancestor among
# these names.
PHASES = ("bench.run_experiments", "bench.run_cell", "metrics.time_step",
          "bench.emit_traces", "stream.pass")
STEP_SPANS = ("rvm_rls.step", "baselines.rls.step", "baselines.gvff_rls.step",
              "baselines.lms.step", "baselines.pf.step")
# Names reported as "<name>.calls" and "<name>.self_s".
CALL_SPANS = ("regression.poly_basis", "base.gain_update",
              "rvm_rls.variance_cost") + STEP_SPANS + (
              "scenario.write_trace_csv", "regression.batch_least_squares",
              "scenario.synthesize")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._restore = []
        self.rejected = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        nid = self._id(name)
        ids, parents, starts, ends = (self.name_ids, self.parents,
                                      self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        i = len(self.starts)
        self.name_ids.append(self._id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` with a traced wrapper until ``restore``."""
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install(self):
        """Patch every layer boundary the benchmark measures."""
        import terrafilter.base as base
        import terrafilter.baselines as baselines
        import terrafilter.bench as bench
        import terrafilter.cli as cli
        import terrafilter.rvm_rls as rvm_rls

        def count_rejection(output):
            self.rejected += output.rejected

        self.patch(cli, "run_experiments", "bench.run_experiments")
        self.patch(bench, "synthesize", "scenario.synthesize")
        self.patch(bench, "run_cell", "bench.run_cell")
        self.patch(bench, "build_filter", "bench.build_filter")
        self.patch(bench, "time_step", "metrics.time_step")
        self.patch(bench, "_emit_trace_files", "bench.emit_traces")
        self.patch(bench, "write_trace_csv", "scenario.write_trace_csv")
        for module in (base, baselines):
            self.patch(module, "poly_basis", "regression.poly_basis")
            self.patch(module, "batch_least_squares",
                       "regression.batch_least_squares")
        self.patch(base.ForgettingFactorCore, "_gain_update", "base.gain_update")
        self.patch(rvm_rls, "variance_cost", "rvm_rls.variance_cost")
        self.patch(rvm_rls.RvmRls, "step_detailed", "rvm_rls.step",
                   on_result=count_rejection)
        self.patch(baselines.StaticRls, "step", "baselines.rls.step")
        self.patch(baselines.GvffRls, "step", "baselines.gvff_rls.step")
        self.patch(baselines.NormalizedLms, "step", "baselines.lms.step")
        self.patch(baselines.BootstrapParticleFilter, "step",
                   "baselines.pf.step")
        self.patch(baselines.BootstrapParticleFilter, "_systematic_resample",
                   "baselines.pf.resample")

    # -- after the run -----------------------------------------------------

    def write(self, path):
        """Write the raw spans as JSON-described flat binary arrays."""
        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names, "count": len(self.starts),
                                 "arrays": ["name_ids:i", "parents:i",
                                            "starts:d", "ends:d"]})
            fh.write(header.encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)

    def summary(self):
        """Per-layer metrics from the recorded spans (see run.PER_LAYER).

        Besides ``<span>.calls`` and ``<span>.self_s`` (duration minus the
        time covered by child spans):

        * ``bench.reports_s``: self time of ``run_experiments``, i.e. writing
          reports, aggregates and the manifest.
        * ``cli.report_s``: ``cli.main`` minus ``run_experiments`` (argument
          and config parsing, re-reading reports.csv, printing tables).
        * ``bench.synthesis_s``: synthesis spans inside ``run_experiments``.
        * ``bench.timing.*``: the serial ``time_step`` pass; ``pairs`` is one
          per (algorithm, scenario), ``runs_per_pair`` counts fits (warm-up
          included) and ``steps_per_run`` the steps of each run.
        * ``bench.steps_per_reported_step``: filter steps executed over steps
          inside a metric cell or a stream pass, whose predictions are
          reported.
        """
        import numpy as np

        n = len(self.starts)
        k = len(self.names)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        has_parent = parents >= 0
        child = np.zeros(n)
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_total = np.bincount(ids, weights=self_time, minlength=k)

        # name id of the nearest phase ancestor of every span, -1 for none
        # (a parent is always recorded before its children)
        is_phase = [name in PHASES for name in self.names]
        id_list = ids.tolist()
        phase = [-1] * n
        for i, p in enumerate(parents.tolist()):
            if p >= 0:
                phase[i] = id_list[p] if is_phase[id_list[p]] else phase[p]
        phase = np.array(phase, dtype=np.int32)

        def nid(name):
            return self._ids.get(name, -2)

        def get(table, name):
            return float(table[self._ids[name]]) if name in self._ids else 0.0

        def under(name, phase_name):
            return (ids == nid(name)) & (phase == nid(phase_name))

        def count(name, phase_name):
            return int(under(name, phase_name).sum())

        def sum_dur(name, phase_name):
            return float(dur[under(name, phase_name)].sum())

        out = {}
        for name in CALL_SPANS:
            out[f"{name}.calls"] = int(get(calls, name))
            out[f"{name}.self_s"] = get(self_total, name)
        rvm_steps = get(calls, "rvm_rls.step")
        pf_steps = get(calls, "baselines.pf.step")
        out["rvm_rls.rejected"] = self.rejected
        out["rvm_rls.rejected_ratio"] = self.rejected / rvm_steps if rvm_steps else 0.0
        out["baselines.pf.resample.calls"] = int(get(calls, "baselines.pf.resample"))
        out["baselines.pf.resample_ratio"] = (
            get(calls, "baselines.pf.resample") / pf_steps if pf_steps else 0.0)

        out["bench.cells"] = int(get(calls, "bench.run_cell"))
        out["bench.cells_s"] = get(total, "bench.run_cell")
        out["bench.build_filter.calls"] = int(get(calls, "bench.build_filter"))
        pairs = int(get(calls, "metrics.time_step"))
        timing_fits = count("regression.batch_least_squares", "metrics.time_step")
        timing_steps = sum(count(s, "metrics.time_step") for s in STEP_SPANS)
        out["bench.timing_s"] = get(total, "metrics.time_step")
        out["bench.timing.pairs"] = pairs
        out["bench.timing.runs_per_pair"] = timing_fits / pairs if pairs else 0.0
        out["bench.timing.steps_per_run"] = (
            timing_steps / timing_fits if timing_fits else 0.0)
        out["bench.synthesis_s"] = sum_dur("scenario.synthesize",
                                           "bench.run_experiments")
        out["bench.reports_s"] = get(self_total, "bench.run_experiments")
        out["cli.report_s"] = (get(total, "cli.main")
                               - get(total, "bench.run_experiments"))
        out["bench.emit_traces_s"] = get(total, "bench.emit_traces")
        out["bench.emit_traces.self_s"] = get(self_total, "bench.emit_traces")

        executed = sum(int(get(calls, s)) for s in STEP_SPANS)
        reported = sum(count(s, "bench.run_cell") + count(s, "stream.pass")
                       for s in STEP_SPANS)
        out["bench.steps_per_reported_step"] = (
            executed / reported if reported else 0.0)
        out["trace.spans"] = n
        return out
