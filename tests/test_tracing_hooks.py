"""The traced benchmark (``perfbench/run.py --trace 1``) patches names of the
package from the outside: module globals such as ``bench.run_cell`` and
class attributes such as ``ForgettingFactorCore._gain_update``. Renaming or
deleting one of them must fail here, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from terrafilter import BootstrapParticleFilter, RvmRls, ScenarioConfig, synthesize
from terrafilter.bench import AlgorithmSpec, ExperimentConfig, run_experiments
from terrafilter.metrics import TIMED_RUNS

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_patched_name_exists_and_is_restored():
    tracer = _tracer()
    trace = synthesize(ScenarioConfig(sample_count=130, clean_prefix=100))
    try:
        tracer.install()  # looks each name up: a missing one raises KeyError
        patched = list(tracer._restore)
        RvmRls().run(trace.times, trace.measurement)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
    summary = tracer.summary()
    # the benchmark asserts rvm_rls.step.calls > 0: RvmRls.step must go
    # through the patched step_detailed, and an update through _gain_update
    assert summary["rvm_rls.step.calls"] == 30
    assert summary["base.gain_update.calls"] >= 1
    assert summary["regression.poly_basis.calls"] == 30


@pytest.mark.parametrize("make, method, span", [
    (RvmRls, "run_detailed", "rvm_rls.step"),
    (lambda: BootstrapParticleFilter(particle_count=10), "run", "baselines.pf.step"),
], ids=["rvm_rls", "pf"])
def test_one_driver_calls_the_traced_steps(make, method, span):
    # run and run_detailed share one per-trace driver, which must step
    # through the names the tracer patches: RvmRls.step_detailed and the
    # particle filter's step
    tracer = _tracer()
    trace = synthesize(ScenarioConfig(sample_count=130, clean_prefix=100))
    try:
        tracer.install()
        getattr(make(), method)(trace.times, trace.measurement)
    finally:
        tracer.restore()
    assert tracer.summary()[f"{span}.calls"] == 30


@pytest.mark.parametrize("make", [RvmRls, lambda: BootstrapParticleFilter(particle_count=10)],
                         ids=["rvm_rls", "pf"])
def test_one_batch_fit_per_run(make):
    # every filter's fit goes through base.batch_least_squares, once
    tracer = _tracer()
    trace = synthesize(ScenarioConfig(sample_count=130, clean_prefix=100))
    try:
        tracer.install()
        make().run(trace.times, trace.measurement)
    finally:
        tracer.restore()
    assert tracer.summary()["regression.batch_least_squares.calls"] == 1


def test_timing_pass_per_layer_counts(tmp_path):
    # the serial timing pass runs in this process: one time_step per
    # (scenario, algorithm), each a warm-up plus TIMED_RUNS fitted runs of
    # every post-window step; a change to that shape must change these
    config = ExperimentConfig(
        scenarios=(ScenarioConfig(name="short", sample_count=130, clean_prefix=100),),
        algorithms=(AlgorithmSpec("rvm_rls", "rvm_rls"), AlgorithmSpec("lms", "lms")),
        seeds=(0, 1), output_dir=str(tmp_path), emit_traces=False)
    tracer = _tracer()
    try:
        tracer.install()
        run_experiments(config)
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["bench.timing.pairs"] == 2
    assert summary["bench.timing.runs_per_pair"] == TIMED_RUNS + 1
    assert summary["bench.timing.steps_per_run"] == 30
