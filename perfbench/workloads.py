"""The benchmark's workloads and their correctness gates.

Every workload is a closed loop with one caller: each operation starts when
the previous one ends.  A *pass* is one repetition of the workload's fixed
work; a run repeats passes for the requested number of seconds.  Each pass
first does its own set-up, timed apart from the fixed work.

stripe1d     the default ``pmdnet train`` run (the paper's 1D stripe
             experiment), one update per operation.
map2d_40x40  a short 40x40 training run with several reports and
             checkpoints, where the full-input residual arrays dominate.
verify       the check commands (gradcheck, its --corrupt control,
             bound-oracle, phase), one command per operation.

The training passes mirror ``pmdnet train`` (config, initial state,
held-out batch, ``run_training`` with reports and checkpoints, final report
and final checkpoint) without its CSV export.  The workload seed is the
training seed, so the program generates every input from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import shutil
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

TRAINING_OVERRIDES = {
    # The 1D stripe run is the CLI default config; nothing to override.
    "stripe1d": [],
    # kappa = 2 pi / 9 makes a 9-cell window hold one whole period, so the
    # kappa check stays quiet.  At 40x40 the held-out objective drifts by
    # about 0.1% over the first updates, up as often as down; after 48
    # updates it had fallen on each of the 20 seeds tried (0-9, 100-109).
    "map2d_40x40": [
        "lattice.node_dims=40,40",
        "lattice.input_window=9,9",
        "lattice.neighbourhood_window=7,7",
        "lattice.leakage_window=5,5",
        f"training.kappa={2.0 * math.pi / 9.0!r}",
        "training.updates=48",
        "run.report_every=8",
        "run.checkpoint_every=16",
    ],
}

WORKLOADS = ("stripe1d", "map2d_40x40", "verify")

GRADCHECK_TOL = 1e-5
ORACLE_TOL = 1e-10
# 20^4 = 160 000 firing tuples: enumeration is most of the command's time.
ORACLE_ARGS = ["--nodes", "20", "--firings", "4", "--samples", "20", "--dim", "4"]
GRADCHECK_4X4 = [
    "--override", "lattice.node_dims=4,4",
    "--override", "lattice.input_window=3,3",
    "--override", "lattice.neighbourhood_window=3,3",
    "--override", "lattice.leakage_window=3,3",
]
PHASE_FILES = ("values_n1.csv", "values_n2.csv", "values_ninf.csv", "phase_boundaries.csv")


@dataclass
class PassResult:
    """One repetition of a workload's fixed work."""

    setup_s: float = 0.0
    seconds: float = 0.0
    ops: list[float] = field(default_factory=list)    # operation latencies, s
    op_labels: list[str] = field(default_factory=list)  # verify: the check of each op
    evals: list[float] = field(default_factory=list)  # evaluation latencies, s
    attempted: int = 0
    failed: int = 0
    gates: list[tuple[str, bool, str]] = field(default_factory=list)
    fingerprint: str = ""  # must repeat exactly across passes of one seed

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1


def _same_state(a, b) -> bool:
    """Bit-exact equality of two TrainerStates."""
    arrays = ("weights", "biases", "ref_vectors")
    return (all(getattr(a.params, k).tobytes() == getattr(b.params, k).tobytes() for k in arrays)
            and a.rates.tobytes() == b.rates.tobytes()
            and a.diameters.tobytes() == b.diameters.tobytes()
            and a.step == b.step and a.tcfg == b.tcfg and a.lattice_cfg == b.lattice_cfg
            and a.seed_policy == b.seed_policy
            and a.data_rng.bit_generator.state == b.data_rng.bit_generator.state)


def training_pass(pm, workload: str, seed: int, work_dir: str, mark) -> PassResult:
    """One training run: set-up, then updates with reports and checkpoints."""
    trainer = pm.trainer
    res = PassResult()
    mark("setup")
    t0 = perf_counter()
    pm.clear_lattice_cache()  # build the Lattice, as a fresh process would
    rc = pm.cli.load_run_config(None, TRAINING_OVERRIDES[workload], seed)
    state = trainer.new_state(rc.lattice, rc.training, rc.seed_policy)
    heldout = trainer.heldout_samples(rc.lattice, rc.training, rc.heldout_size)
    res.setup_s = perf_counter() - t0
    mark(None)

    objective = []
    roundtrips = []
    last_ckpt = ""

    def record(st) -> None:
        t = perf_counter()
        res.attempted += 1
        bound = trainer.heldout_objective(st, heldout)
        if st.tcfg.s == 2:
            trainer.dominance(st)
        res.evals.append(perf_counter() - t)
        objective.append((st.step, bound.total))

    def checkpoint(st, name: str) -> None:
        nonlocal last_ckpt
        path = os.path.join(work_dir, name)
        res.attempted += 2
        trainer.checkpoint_save(st, path)
        roundtrips.append(_same_state(st, trainer.checkpoint_load(path)))
        last_ckpt = path

    last = 0.0

    def on_step(st) -> None:
        nonlocal last
        res.ops.append(perf_counter() - last)
        res.attempted += 1
        if rc.report_every and st.step % rc.report_every == 0:
            record(st)
        if rc.checkpoint_every and st.step % rc.checkpoint_every == 0:
            checkpoint(st, f"checkpoint_{st.step:06d}.ckpt")
        last = perf_counter()

    start = perf_counter()
    try:
        record(state)
        last = perf_counter()
        trainer.run_training(state, rc.training.updates - state.step, on_step=on_step)
        if objective[-1][0] != state.step:
            record(state)
        checkpoint(state, "checkpoint_final.ckpt")
    except Exception:  # a failed operation is counted, the run goes on
        traceback.print_exc()
        res.seconds = perf_counter() - start
        res.gate("pass completed", False, f"stopped at step {state.step}")
        return res
    res.seconds = perf_counter() - start

    params = state.params
    res.gate("parameters finite", all(np.all(np.isfinite(a)) for a in
                                      (params.weights, params.biases, params.ref_vectors)))
    first, final = objective[0][1], objective[-1][1]
    res.gate("held-out objective fell", final < first, f"{first:.6g} -> {final:.6g}")
    res.gate("checkpoint round trip bit-exact", all(roundtrips), f"{sum(roundtrips)}/{len(roundtrips)}")
    with open(last_ckpt, "rb") as fh:
        res.fingerprint = hashlib.sha256(fh.read()).hexdigest()
    return res


def verify_checks(seed: int, work_dir: str) -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit code) of each check command."""
    s = str(seed)
    return [
        ("gradcheck_1x8", ["gradcheck", "--seed", s], 0),
        ("gradcheck_4x4", ["gradcheck", "--seed", s] + GRADCHECK_4X4, 0),
        ("gradcheck_corrupt", ["gradcheck", "--corrupt", "--seed", s], 1),
        ("bound_oracle", ["bound-oracle", "--seed", s] + ORACLE_ARGS, 0),
        ("phase", ["phase", "--out-dir", os.path.join(work_dir, "phase")], 0),
    ]


_FLOAT = r"([-+0-9.eE]+|nan|inf)"


def _check_output(label: str, code: int, expected: int, text: str, work_dir: str) -> tuple[bool, str]:
    """Whether one check command gave the right exit code and output."""
    ok, detail = code == expected, f"exit {code} (expected {expected})"
    if label.startswith("gradcheck"):
        m = re.search(r"max_rel_error " + _FLOAT + r" over (\d+) components", text)
        if m is None:
            return False, detail + ", no max_rel_error line"
        caught = float(m.group(1)) > GRADCHECK_TOL
        # The --corrupt control must be caught; a control that passes fails.
        ok = ok and (caught if label == "gradcheck_corrupt" else not caught)
        return ok, f"{detail}, max_rel_error {m.group(1)} over {m.group(2)} components"
    if label == "bound_oracle":
        values = dict(re.findall(r"^(D[0-9]?)\s*= " + _FLOAT, text, re.M))
        m = re.search(r"residual \|D - \(D1\+D2-D3\)\| = " + _FLOAT, text)
        if m is None or set(values) != {"D", "D1", "D2", "D3"}:
            return False, detail + ", unparsable output"
        residual, d, d3 = float(m.group(1)), float(values["D"]), float(values["D3"])
        ok = ok and residual <= ORACLE_TOL * max(1.0, abs(d)) and d3 >= 0.0
        return ok, f"{detail}, residual {residual:.3e}, D3 {d3:.6g}"
    if label == "phase":
        paths = [os.path.join(work_dir, "phase", f) for f in PHASE_FILES]
        missing = [os.path.basename(p) for p in paths
                   if not (os.path.isfile(p) and os.path.getsize(p) > 0)]
        return ok and not missing, f"{detail}, missing {missing}" if missing else f"{detail}, 4 tables"
    return ok, detail


def verify_pass(pm, seed: int, work_dir: str, mark) -> PassResult:
    """Run every check command once, in a fixed order."""
    res = PassResult()
    shutil.rmtree(os.path.join(work_dir, "phase"), ignore_errors=True)
    mark("setup")
    t0 = perf_counter()
    pm.clear_lattice_cache()  # build the Lattice, as a fresh process would
    for overrides in ([], GRADCHECK_4X4[1::2]):
        rc = pm.cli.load_run_config(None, overrides, seed, defaults=pm.cli.GRADCHECK_DEFAULTS)
        pm.lattice.get_lattice(rc.lattice)
    checks = verify_checks(seed, work_dir)
    res.setup_s = perf_counter() - t0
    mark(None)

    outputs = []
    start = perf_counter()
    for label, argv, expected in checks:
        buf = io.StringIO()
        t = perf_counter()
        res.attempted += 1
        try:
            with contextlib.redirect_stdout(buf):
                code = pm.cli.main(argv)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            code = -1
        res.ops.append(perf_counter() - t)
        res.op_labels.append(label)
        ok, detail = _check_output(label, code, expected, buf.getvalue(), work_dir) \
            if code != -1 else (False, "raised")
        res.gate(label, ok, detail)
        outputs.append(buf.getvalue())
    res.seconds = perf_counter() - start
    res.fingerprint = hashlib.sha256("\0".join(outputs).encode()).hexdigest()
    return res
