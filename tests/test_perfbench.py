"""The benchmark's per-layer attribution names functions that exist, and
its passes run against the package as it is."""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

import pmdnet
from pmdnet import cli, lattice, trainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def program():
    """The namespace perfbench/run.py hands its passes."""
    return argparse.Namespace(package=pmdnet, cli=cli, lattice=lattice, trainer=trainer,
                              clear_lattice_cache=lattice.get_lattice.cache_clear)


def test_every_traced_function_resolves():
    # the tracer reports a function it cannot find as absent and reads its
    # per-layer metrics as 0, so a rename in pmdnet must fail here instead
    missing = []
    for layer, path, _metric in load_perfbench("tracing").LAYER_FUNCTIONS:
        owner = importlib.import_module(f"pmdnet.{layer}")
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{layer}.{path}")
            continue
        assert callable(owner), f"{layer}.{path}"
    assert missing == []


def test_bench_passes_run_and_pass_their_gates(tmp_path):
    # a renamed TrainerState or RunConfig field fails here instead of as a
    # failed operation
    pm = program()
    workloads = load_perfbench("workloads")
    for res in (workloads.training_pass(pm, "map2d_40x40", 0, str(tmp_path), lambda _: None),
                workloads.verify_pass(pm, 0, str(tmp_path), lambda _: None)):
        assert res.gates and all(ok for _name, ok, _detail in res.gates), res.gates
        assert res.failed == 0


def test_verify_passes_repeat_and_time_their_evaluations(tmp_path):
    # the bench's run-level gates over verify passes: the outputs of two
    # passes are byte-identical, and the objective evaluations inside the
    # checks reach the tracer through the names the modules bind
    pm = program()
    workloads = load_perfbench("workloads")
    tracer = load_perfbench("tracing").Tracer(pmdnet, "test", only=("objective.compute_D1_D2",))
    fingerprints = []
    for label in (0, 1):
        tracer.install()
        try:
            res = workloads.verify_pass(
                pm, 0, str(tmp_path), lambda part, label=label: tracer.begin(part or label))
        finally:
            tracer.uninstall()
        assert res.failed == 0, res.gates
        fingerprints.append(res.fingerprint)
    assert fingerprints[0] == fingerprints[1]
    assert tracer.durations("objective.compute_D1_D2")


def test_verify_pass_traces_the_activity_layer(tmp_path):
    # objective.forward calls activation.activities, so the bench's
    # activities metric reads the real activity layer
    pm = program()
    workloads = load_perfbench("workloads")
    tracer = load_perfbench("tracing").Tracer(pmdnet, "test", only=("activation.activities",))
    tracer.install()
    try:
        res = workloads.verify_pass(pm, 0, str(tmp_path), lambda part: tracer.begin(part or 0))
    finally:
        tracer.uninstall()
    assert res.failed == 0, res.gates
    assert tracer.durations("activation.activities")
