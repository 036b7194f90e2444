"""pmdnet benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload stripe1d --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                      # all three workloads, one process

Run it from the root of a source checkout; it imports pmdnet from ./src and
nothing else.  It prints one line per metric (value, unit, sample count),
the correctness gates, and as the last line one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (machine facts,
gates, tail percentiles) goes to .bench_out/result-<workload>-trace<t>.json
and, with --trace 1, the spans to .bench_out/spans-<workload>.jsonl.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# One process; BLAS and OpenMP pools capped at the CPUs this process may
# use.  Set before numpy is first imported, here and in the import probes.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import tracing  # noqa: E402  (numpy is imported below the thread caps)
import workloads  # noqa: E402

IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import pmdnet, pmdnet.cli\n"
    "print(time.perf_counter() - t)\n"
)
# p99 and above are left out: on a 2-core VM shared with other tenants,
# stripe1d's p99 ranged from 1.65 to 4.77 ms over six 21-second runs, while
# p95 ranged from 1.52 to 1.71 ms.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0)
MIN_PASSES = 2

UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "eval_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import pmdnet from this checkout's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "pmdnet", "__init__.py")):
        sys.exit(f"error: no pmdnet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import pmdnet
    from pmdnet import cli, lattice, trainer

    if os.path.dirname(os.path.dirname(os.path.abspath(pmdnet.__file__))) != SRC:
        sys.exit(f"error: imported pmdnet from {pmdnet.__file__}, not from {SRC}")
    # Kept before any tracer wraps get_lattice (the wrapper has no cache_clear).
    clear = getattr(lattice.get_lattice, "cache_clear", lambda: None)
    return argparse.Namespace(package=pmdnet, cli=cli, lattice=lattice, trainer=trainer,
                              clear_lattice_cache=clear)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "processes": 1,
        "timers": "process-local time.perf_counter and resource.getrusage only; "
                  "no system-wide tracing or profiling",
    }


def import_seconds() -> list[float]:
    """Time `import pmdnet` in fresh interpreters (the part of set-up that a
    running process cannot repeat)."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                             text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile of TAIL_PERCENTILES with at least 10 samples
    beyond it, and its value."""
    import numpy as np

    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if int(len(values) * (100.0 - p) / 100.0) >= 10:
            chosen = p
    return chosen, float(np.percentile(values, chosen))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_passes(runners, seconds: float, min_passes: int) -> list:
    """Cycle through the pass runners until at least `min_passes` have run
    and the next pass would end after `seconds`.  Returns (runner index,
    PassResult) pairs."""
    from time import perf_counter

    results = []
    start = perf_counter()
    while True:
        which = len(results) % len(runners)
        results.append((which, runners[which](len(results))))
        typical = statistics.median(r.setup_s + r.seconds for _, r in results)
        if len(results) >= min_passes and perf_counter() - start + typical > seconds:
            return results


def run_workload(pm, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = os.path.join(OUT_DIR, f"work-{workload}")
    os.makedirs(work_dir, exist_ok=True)
    run_id = uuid.uuid4().hex

    def run_pass(label, tracer):
        """One pass; with a tracer, its spans are labelled `label` (set-up:
        "setup") and the wrappers exist only while the pass runs."""
        def mark(part):
            if tracer is not None:
                tracer.begin("setup" if part == "setup" else label)
        if tracer is not None:
            tracer.install()
        try:
            if workload == "verify":
                return workloads.verify_pass(pm, seed, work_dir, mark)
            return workloads.training_pass(pm, workload, seed, work_dir, mark)
        finally:
            if tracer is not None:
                tracer.uninstall()

    imports = import_seconds()
    # The verify workload's evaluations are the objective calls made inside
    # the checks, so plain verify passes time just those calls; training
    # passes time their reports directly.
    eval_tracer = None
    if workload == "verify":
        eval_tracer = tracing.Tracer(pm.package, run_id, only=("objective.compute_D1_D2",))
    runners = [lambda label: run_pass(label, eval_tracer)]
    if trace:
        # Traced passes alternate with plain ones, so both see the same
        # machine load.  The first pass of a process is slower (allocator
        # and lazy imports warm up), so the overhead leaves it out: at
        # least 2 plain and 2 traced passes.
        tracer = tracing.Tracer(pm.package, run_id)
        runners.append(lambda label: run_pass(label, tracer))
    results = repeat_passes(runners, seconds, min_passes=2 * MIN_PASSES if trace else MIN_PASSES)
    plain = [r for which, r in results if which == 0]
    traced = [r for which, r in results if which == 1]

    layer, problems = None, []
    if trace:
        labels = [label for label, (which, _) in enumerate(results) if which == 1]
        layer, problems = tracing.per_layer_metrics(
            tracer, labels, {label: results[label][1].seconds for label in labels},
            untraced_run_s=statistics.median(r.seconds for r in plain[1:]),
            traced_run_s=statistics.median(r.seconds for r in traced))
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}.jsonl"))
    shutil.rmtree(work_dir, ignore_errors=True)

    passes = plain + traced
    gates = {}
    for r in passes:
        for name, ok, detail in r.gates:
            if gates.get(name, (True,))[0]:  # keep the first failure's detail
                gates[name] = (ok, detail)
    fingerprints = {r.fingerprint for r in passes}
    gates["outputs repeat across passes (SHA-256)"] = (
        len(fingerprints) == 1, f"{len(fingerprints)} distinct over {len(passes)} passes")
    if trace:
        gates["per-layer counts repeat across passes"] = (not problems, "; ".join(problems) or "yes")

    ops = [t for r in plain for t in r.ops]
    if workload == "verify":
        evals = eval_tracer.durations("objective.compute_D1_D2")
        gates["objective evaluations timed"] = (bool(evals), f"{len(evals)} compute_D1_D2 calls")
    else:
        evals = [t for r in plain for t in r.evals]
    # A pass counts its own failed gates; the run-level gates add theirs.
    failed = sum(r.failed for r in passes) + (len(fingerprints) != 1) + len(problems) + (not evals)

    def median(values):
        return statistics.median(values) if values else 0.0

    tail_p, tail_value = tail(ops) if ops else (0.0, 0.0)
    e2e = {
        "setup_s": (median(imports) + median([r.setup_s for r in passes]), len(imports),
                    "median import probe + median in-process set-up"),
        "run_s": (median([r.seconds for r in plain]), len(plain), "passes"),
        "ops_per_s": (len(ops) / sum(ops) if ops else 0.0, len(ops), "operations"),
        "op_ms_p50": (median(ops) * 1e3, len(ops), "operations"),
        "op_ms_tail": (tail_value * 1e3, len(ops), f"p{tail_p:g}"),
        "eval_ms_p50": (median(evals) * 1e3, len(evals), "evaluations"),
        "peak_rss_mb": (peak_rss_mb(), 1, "process maximum so far"),
    }
    return {
        "workload": workload,
        "seed": seed,
        "run_id": run_id,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_seconds": {"untraced": [r.seconds for r in plain], "traced": [r.seconds for r in traced]},
        "setup_seconds": {"import_probes": imports, "in_process": [r.setup_s for r in passes]},
        "op_ms_p50_by_check": {
            label: median([t for r in plain for t, l in zip(r.ops, r.op_labels) if l == label]) * 1e3
            for label in dict.fromkeys(l for r in plain for l in r.op_labels)},
        "end_to_end": e2e,
        "per_layer": layer,
        "absent": tracer.absent if trace else [],
        "gates": gates,
        "attempted": sum(r.attempted for r in passes),
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pm = load_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    facts = machine_facts()
    print("# machine " + json.dumps(facts))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    prefix = args.workload == "all"

    metrics = {}
    correct = True
    attempted = failed = 0
    for workload in names:
        result = run_workload(pm, workload, args.seed, args.seconds, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        ok = result["failed"] == 0 and all(g[0] for g in result["gates"].values())
        correct = correct and ok
        print(f"# workload {workload} seed {args.seed} trace {args.trace} "
              f"passes {result['passes']} run_id {result['run_id']}")
        for name, (value, n, note) in result["end_to_end"].items():
            print(f"{workload:12s} {name:14s} {value:14.6g} {UNITS[name]:4s} n={n} {note}")
        print(f"{workload:12s} {'failed_frac':14s} {result['failed'] / max(1, result['attempted']):14.6g} "
              f"{'':4s} n={result['attempted']} failed/attempted operations")
        for gate, (gate_ok, detail) in result["gates"].items():
            print(f"{workload:12s} gate {'ok  ' if gate_ok else 'FAIL'} {gate}: {detail}")
        if result["absent"]:
            print(f"{workload:12s} absent functions: {', '.join(result['absent'])}")
        if args.trace:
            chosen = result["per_layer"]
            for name, entry in chosen.items():
                print(f"{workload:12s} {name:52s} {entry['value']:14.6g} {entry['unit']}")
        else:
            chosen = {name: {"value": value, "unit": UNITS[name]}
                      for name, (value, _n, _note) in result["end_to_end"].items()}
        for name, entry in chosen.items():
            metrics[f"{workload}.{name}" if prefix else name] = entry
        record = dict(result, machine=facts, trace=args.trace, seconds=args.seconds, correct=ok)
        with open(os.path.join(OUT_DIR, f"result-{workload}-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
