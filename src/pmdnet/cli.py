"""Command-line entry points.

Subcommands:
  train         online training run; writes dominance and objective CSVs,
                checkpoints, and (for 2D node arrays) a PGM dominance map
                per sensor
  gradcheck     finite-difference validation of all analytic gradients
  phase         closed-form value curves and phase boundaries over (M, n)
  bound-oracle  brute-force check of the exact distortion decomposition

Exit codes: 0 success, 1 check failure or a training run that failed at run
time (it diverged to a non-finite rate, gradient or parameter, or every
activity in some neighbourhood underflowed to zero), 2 config error, 3 IO
error, 130 interrupted (Ctrl-C).  train runs trainer.train and streams its
reports into the objective-trace and dominance-history CSVs, flushed at
every report, so a run that fails or is interrupted keeps the rows recorded
so far.

Config files are INI-style key = value sections.  RunConfig is the schema:
[lattice] sets the fields of LatticeConfig, [training] those of
TrainingConfig and [run] RunConfig's own, each value parsed by the type its
field declares; a ';' or '#' starts a comment, also after a value.  A
config file and --override items change a preset, DEFAULTS (the 1D stripe
run) or GRADCHECK_DEFAULTS.  Every CSV starts with a comment line carrying a
short hash of the typed configuration that ran, so two spellings of one
value (0.3 and 3e-1) give one hash.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import fnmatch
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .activation import DegenerateActivityError, NodeParams
from .analytic import check_n, describe_crossovers, n_label, phase_diagram, value_table
from .datagen import TrainingConfig, validate_kappa
from .gradients import FD_TOL, finite_difference_check
from .lattice import LatticeConfig, get_lattice
from .objective import ENUMERATION_GUARD, MAX_FIRINGS, SampleSet, compute_D_exact
from .schema import check_field_types, config_hash, field_types
from .trainer import (
    SEED_POLICIES,
    CheckpointError,
    TrainerState,
    TrainingDivergedError,
    checkpoint_load,
    dominance,
    heldout_samples,
    new_state,
    stream,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
# The settings stored in a checkpoint that a resumed run may change: how long
# it runs and how it steps, not what the model is.  A run's other [run]
# settings are not stored in a checkpoint, so a resume may change them too.
RESUMABLE = ("training.updates", "training.epsilon", "run.seed_policy")

# Bounds on the work one command takes on; a config over one exits 2 before
# that work starts, as a lattice over lattice.LATTICE_MAX_CELLS does.
GRADCHECK_MAX_NODES = 16
# M values in one `pmdnet phase` grid; 116 000 took ~4 s per n value.
PHASE_MAX_POINTS = 100_000
# Held-out input cells, run.heldout_size * input size.  They are drawn one
# vector at a time, measured at 16-21 bytes and 0.16-0.9 us per cell (40 x 40
# and the stripe), so the bound is about 0.2 GB and up to ~9 s of drawing.
HELDOUT_MAX_CELLS = 10_000_000
# The files a training run writes; a run refuses an --out-dir that holds one,
# so two runs' outputs never mix.
RUN_FILES = ("objective_trace.csv", "dominance*.csv", "dominance_a*.pgm", "checkpoint_*.ckpt")


class ConfigError(ValueError):
    """Invalid configuration content (unknown key, bad value, bad combination)."""


@dataclass(frozen=True)
class RunConfig:
    """A training run: its lattice, its training and the [run] settings.

    report_every      held-out objective and dominance recording cadence
    checkpoint_every  periodic checkpoint cadence; 0 disables them
    seed_policy       one of SEED_POLICIES
    heldout_size      vectors in the frozen held-out batch
    """

    lattice: LatticeConfig
    training: TrainingConfig
    report_every: int = 100
    checkpoint_every: int = 0
    seed_policy: str = "fresh"
    heldout_size: int = 64

    def __post_init__(self):
        check_field_types(self)
        if self.seed_policy not in SEED_POLICIES:
            raise ValueError(f"run.seed_policy must be {' or '.join(map(repr, SEED_POLICIES))}, "
                             f"got {self.seed_policy!r}")
        if self.report_every < 0 or self.checkpoint_every < 0 or self.heldout_size < 1:
            raise ValueError("report_every/checkpoint_every must be >= 0 and heldout_size >= 1")
        d = self.lattice.input_size
        if self.heldout_size * d > HELDOUT_MAX_CELLS:
            raise ValueError(f"run.heldout_size * input size = {self.heldout_size:,} * {d:,} = "
                             f"{self.heldout_size * d:,} cells exceeds the {HELDOUT_MAX_CELLS:,} bound")


# The 1D stripe run: the paper's ocular-dominance experiment.
DEFAULTS = RunConfig(
    lattice=LatticeConfig(node_dims=(1, 100), input_window=(1, 41),
                          neighbourhood_window=(1, 21), leakage_window=(1, 15)),
    training=TrainingConfig(kappa=0.3, nu=0.1, s=2, n=400, epsilon=0.002, seed=0, updates=3200),
)

# A lattice small enough to finite-difference every gradient component.
GRADCHECK_DEFAULTS = RunConfig(
    lattice=LatticeConfig(node_dims=(1, 8), input_window=(1, 5),
                          neighbourhood_window=(1, 3), leakage_window=(1, 3)),
    training=TrainingConfig(kappa=0.3, nu=0.0, s=1, n=3, epsilon=0.002, seed=0, updates=0),
)


# Config file section -> key -> declared type.  Each dataclass field of
# RunConfig is a section; RunConfig's other fields make up [run].
_RUN_FIELDS = field_types(RunConfig)
SECTIONS = {name: field_types(typ) for name, typ in _RUN_FIELDS.items() if dataclasses.is_dataclass(typ)}
SECTIONS["run"] = {name: typ for name, typ in _RUN_FIELDS.items() if name not in SECTIONS}


def _read_config_file(path: str) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cp.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
    return {section: dict(cp[section]) for section in cp.sections()}


def merge_config(file_dict: dict | None, overrides: list[str], seed: int | None) -> dict[str, str]:
    """The settings that a config file, --override items and --seed give, as
    'section.key' -> text; a later one wins.  Unknown targets are rejected."""
    merged = {}
    for section, items in (file_dict or {}).items():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in items.items():
            if key not in SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            merged[f"{section}.{key}"] = value
    for item in overrides:
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, _, key = head.partition(".")
        if key not in SECTIONS.get(section, {}):
            raise ConfigError(f"unknown override target {section}.{key}")
        merged[head] = value
    if seed is not None:
        merged["training.seed"] = str(seed)
    return merged


def _parse(typ, text: str, setting: str):
    """text parsed as the declared type typ; a parse error names the setting."""
    if typ == tuple[int, int]:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{setting} must be two comma-separated integers, got {text!r}")
        return tuple(_parse(int, part, setting) for part in parts)
    try:
        return typ(text)
    except ValueError as exc:
        raise ValueError(f"{setting}: {exc}") from exc


def build_run_config(merged: dict[str, str], defaults: RunConfig = DEFAULTS) -> RunConfig:
    """defaults with each merged setting parsed by the type its field declares."""
    values = {section: {} for section in SECTIONS}
    try:
        for setting, text in merged.items():
            section, _, key = setting.partition(".")
            values[section][key] = _parse(SECTIONS[section][key], text, setting)
        run = values.pop("run")
        return dataclasses.replace(defaults, **run, **{
            section: dataclasses.replace(getattr(defaults, section), **items)
            for section, items in values.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(config_path: str | None, overrides: list[str], seed: int | None,
                    defaults: RunConfig = DEFAULTS) -> RunConfig:
    file_dict = _read_config_file(config_path) if config_path else None
    return build_run_config(merge_config(file_dict, overrides, seed), defaults)


def _open_csv(path: str, cfg_hash: str, columns: list[str]):
    fh = open(path, "w", encoding="utf-8", newline="")
    fh.write(f"# config_hash={cfg_hash}\n")
    csv.writer(fh).writerow(columns)
    return fh


def _write_csv(path: str, cfg_hash: str, columns: list[str], rows) -> None:
    with _open_csv(path, cfg_hash, columns) as fh:
        csv.writer(fh).writerows(rows)


def _write_pgm(path: str, values: np.ndarray) -> None:
    """8-bit binary portable graymap, one pixel per node, max scaled to 255."""
    peak = float(values.max())
    scaled = np.zeros(values.shape, dtype=np.uint8)
    if peak > 0.0:
        scaled = np.clip(np.rint(values / peak * 255.0), 0, 255).astype(np.uint8)
    height, width = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())


def _setting(rc: RunConfig, setting: str):
    """The value of a 'section.key' setting in rc."""
    section, _, key = setting.partition(".")
    return getattr(rc if section == "run" else getattr(rc, section), key)


def _resume(path: str, merged: dict[str, str], rc: RunConfig) -> tuple[TrainerState, RunConfig]:
    """Load a checkpoint and return it with the config the resumed run runs:
    the checkpoint's settings, overlaid with the RESUMABLE ones given.

    Any other [lattice] or [training] setting given (config file, --override
    or --seed) must equal the checkpoint's, or the run would ignore it; one
    that differs is a ConfigError, and so is a target below the checkpoint's step.
    """
    state = checkpoint_load(path)
    stored = dataclasses.replace(rc, lattice=state.lattice_cfg, training=state.tcfg,
                                 seed_policy=state.seed_policy)
    ran = build_run_config({s: text for s, text in merged.items() if s in RESUMABLE}, defaults=stored)
    state.tcfg, state.seed_policy = ran.training, ran.seed_policy
    changed = [setting for setting in sorted(merged) if _setting(ran, setting) != _setting(rc, setting)]
    if changed:
        raise ConfigError(f"a resumed run keeps the checkpoint's lattice and training settings; "
                          f"cannot change {', '.join(changed)}")
    if state.step > state.tcfg.updates:
        raise ConfigError(f"training.updates {state.tcfg.updates} is below the checkpoint's step {state.step}")
    return state, ran


def cmd_train(args) -> int:
    file_dict = _read_config_file(args.config) if args.config else None
    # the shorthand flags are [run] overrides, so they are validated and
    # hashed like the keys they set
    shorthand = [f"run.{key}={getattr(args, key)}" for key in ("report_every", "checkpoint_every")
                 if getattr(args, key) is not None]
    merged = merge_config(file_dict, args.override + shorthand, args.seed)
    rc = build_run_config(merged)

    if args.resume:
        state, rc = _resume(args.resume, merged, rc)
    else:
        state = new_state(rc.lattice, rc.training, rc.seed_policy)
    cfg_hash = config_hash(rc)
    out_dir = args.out_dir
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in RUN_FILES):
                raise ConfigError(f"--out-dir {out_dir} already holds {name} from another run")

    for warning in validate_kappa(rc.training, rc.lattice):
        print(f"warning: {warning}", file=sys.stderr)

    os.makedirs(out_dir, exist_ok=True)
    heldout = heldout_samples(state.lattice_cfg, state.tcfg, rc.heldout_size)
    two_sensors = state.tcfg.s == 2
    prof = None
    with (_open_csv(os.path.join(out_dir, "objective_trace.csv"), cfg_hash,
                    ["step", "d1", "d2", "total"]) as trace,
          _open_csv(os.path.join(out_dir, "dominance_history.csv"), cfg_hash,
                    ["step", "node_index", "a1", "a2"]) if two_sensors else contextlib.nullcontext() as history):
        def report(state: TrainerState, bound) -> None:
            nonlocal prof
            csv.writer(trace).writerow((state.step, bound.d1, bound.d2, bound.total))
            trace.flush()
            if two_sensors:
                prof = dominance(state)
                csv.writer(history).writerows(
                    (state.step, idx, a1, a2) for idx, (a1, a2) in enumerate(zip(prof.a1, prof.a2)))
                history.flush()

        train(state, heldout, rc.report_every, rc.checkpoint_every, out_dir, report)

    if two_sensors:  # the last report was of the final state
        _write_csv(os.path.join(out_dir, "dominance.csv"), cfg_hash, ["node_index", "a1", "a2"],
                   [(idx, prof.a1[idx], prof.a2[idx]) for idx in range(prof.a1.size)])
        if state.lattice_cfg.node_dims[0] > 1:
            for name, values in (("a1", prof.a1), ("a2", prof.a2)):
                _write_pgm(os.path.join(out_dir, f"dominance_{name}.pgm"),
                           values.reshape(state.lattice_cfg.node_dims))
    print(f"finished at step {state.step}; outputs in {out_dir} (config {cfg_hash})")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    rc = load_run_config(args.config, args.override, args.seed,
                         defaults=DEFAULTS if args.config else GRADCHECK_DEFAULTS)
    if rc.lattice.num_nodes > GRADCHECK_MAX_NODES:  # before the lattice is built
        raise ConfigError(
            f"gradcheck is limited to {GRADCHECK_MAX_NODES} nodes "
            f"(finite differencing cost), config has {rc.lattice.num_nodes}")
    lattice = get_lattice(rc.lattice)
    seed = rc.training.seed
    param_rng = stream(seed, "gradcheck_params")
    m, k = lattice.num_nodes, lattice.window_len
    params = NodeParams(
        weights=param_rng.uniform(-0.3, 0.3, size=(m, k)),
        biases=param_rng.uniform(-0.2, 0.2, size=m),
        ref_vectors=param_rng.uniform(-0.5, 0.5, size=(m, k)),
    )
    sample_rng = stream(seed, "gradcheck_samples")
    samples = SampleSet(vectors=sample_rng.uniform(-1.0, 1.0, size=(3, lattice.input_size)))
    report = finite_difference_check(
        samples, lattice, params, float(rc.training.n), corrupt_first_component=args.corrupt)
    print(report.format_text())
    if report.passed():
        print(f"PASS max relative error {report.max_rel_error:.3e} <= {FD_TOL:g}")
        return EXIT_OK
    print(f"FAIL max relative error {report.max_rel_error:.3e} > {FD_TOL:g}")
    return EXIT_CHECK_FAILED


def _parse_n_list(text: str) -> list[float]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            n = float(token)
        except ValueError as exc:
            raise ConfigError(f"bad n value {token!r}") from exc
        check_n(n)  # every n before any table is written
        if n in values:  # 2 and 2.0 would write values_n2.csv twice
            raise ConfigError(f"n = {n:g} is given more than once")
        values.append(n)
    if not values:
        raise ConfigError("empty n list")
    return values


def cmd_phase(args) -> int:
    for flag, value in (("--m-min", args.m_min), ("--m-max", args.m_max), ("--m-step", args.m_step)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.m_min < 2 or args.m_max <= args.m_min or args.m_step <= 0:
        raise ConfigError("need 2 <= m-min < m-max and m-step > 0")
    stop = args.m_max + 0.5 * args.m_step
    if (stop - args.m_min) / args.m_step > PHASE_MAX_POINTS:  # the length np.arange takes
        raise ConfigError(f"--m-step {args.m_step:g} gives more than {PHASE_MAX_POINTS} M values "
                          f"from --m-min to --m-max")
    n_values = _parse_n_list(args.n_list)
    cfg_hash = config_hash({"m_min": args.m_min, "m_max": args.m_max, "m_step": args.m_step,
                            "n_list": n_values})
    os.makedirs(args.out_dir, exist_ok=True)
    m_values = np.arange(args.m_min, stop, args.m_step)

    tables = []
    for n in n_values:
        rows = value_table(m_values, n)
        tables.append((n, rows))
        _write_csv(os.path.join(args.out_dir, f"values_n{n_label(n)}.csv"), cfg_hash,
                   ["M", "value_type1", "value_type2", "value_type3", "winner"], rows)
        print(describe_crossovers(n))
    boundary_rows = [(n_label(b.n), b.m, b.lower.label, b.upper.label) for b in phase_diagram(tables)]
    _write_csv(os.path.join(args.out_dir, "phase_boundaries.csv"), cfg_hash,
               ["n", "M", "optimal_below", "optimal_above"], boundary_rows)
    return EXIT_OK


def cmd_bound_oracle(args) -> int:
    m, n, count = args.nodes, args.firings, args.samples
    if m < 1 or n < 1 or count < 1 or args.dim < 1:
        raise ConfigError("nodes, firings, samples and dim must all be >= 1")
    if n > MAX_FIRINGS:  # before M^n, which --nodes 1 would pass for any n
        raise ConfigError(f"--firings {n} exceeds {MAX_FIRINGS}, the most the "
                          f"{ENUMERATION_GUARD:,} enumeration guard admits at --nodes 2")
    if m ** n > ENUMERATION_GUARD:
        raise ConfigError(f"tuple space M^n = {m}^{n} exceeds the {ENUMERATION_GUARD:,} "
                          f"enumeration guard")
    rng = stream(args.seed, "bound_oracle")
    samples = SampleSet(vectors=rng.uniform(-1.0, 1.0, size=(count, args.dim)))
    raw = rng.uniform(0.1, 1.0, size=(count, m))
    posterior = raw / raw.sum(axis=1, keepdims=True)
    exact = compute_D_exact(samples, posterior, n=n)
    residual = abs(exact.distortion - (exact.d1 + exact.d2 - exact.d3))
    scale = max(1.0, abs(exact.distortion))
    print(f"D  = {exact.distortion:.12f}")
    print(f"D1 = {exact.d1:.12f}")
    print(f"D2 = {exact.d2:.12f}")
    print(f"D3 = {exact.d3:.12f}")
    print(f"decomposition residual |D - (D1+D2-D3)| = {residual:.3e}")
    ok = residual <= 1e-10 * scale and exact.d3 >= -1e-10 * scale
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmdnet",
        description="Self-organising multi-sensor network: training and exact checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run online training and export results")
    train.add_argument("--config", help="INI config file (defaults reproduce the 1D stripe run)")
    train.add_argument("--out-dir", default="out")
    train.add_argument("--seed", type=int, default=None, help="override training.seed")
    train.add_argument("--resume", help="checkpoint file to continue from")
    train.add_argument("--report-every", type=int, default=None)
    train.add_argument("--checkpoint-every", type=int, default=None)
    train.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    train.set_defaults(func=cmd_train)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    grad.add_argument("--config")
    grad.add_argument("--seed", type=int, default=None)
    grad.add_argument("--corrupt", action="store_true",
                      help="deliberately corrupt one gradient (sensitivity control)")
    grad.add_argument("--override", action="append", default=[],
                      metavar="SECTION.KEY=VALUE")
    grad.set_defaults(func=cmd_gradcheck)

    phase = sub.add_parser("phase", help="closed-form value curves and phase boundaries")
    phase.add_argument("--out-dir", default="out")
    phase.add_argument("--m-min", type=float, default=2.0)
    phase.add_argument("--m-max", type=float, default=60.0)
    phase.add_argument("--m-step", type=float, default=0.25)
    phase.add_argument("--n-list", default="1,2,inf")
    phase.set_defaults(func=cmd_phase)

    oracle = sub.add_parser("bound-oracle", help="brute-force distortion decomposition check")
    oracle.add_argument("--nodes", type=int, default=4)
    oracle.add_argument("--firings", type=int, default=2)
    oracle.add_argument("--samples", type=int, default=20)
    oracle.add_argument("--dim", type=int, default=2)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.set_defaults(func=cmd_bound_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except DegenerateActivityError as exc:
        # a ValueError, but raised by the state the run reached, not by its config
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation was refused'}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ConfigError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
