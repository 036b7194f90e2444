"""Command-line entry points.

Subcommands:
  train         online training run; writes dominance and objective CSVs,
                checkpoints, and (for 2D node arrays) a PGM dominance map
  gradcheck     finite-difference validation of all analytic gradients
  phase         closed-form value curves and phase boundaries over (M, n)
  bound-oracle  brute-force check of the exact distortion decomposition

Exit codes: 0 success, 1 check failure or diverged training (a non-finite
gradient or parameter), 2 config error, 3 IO error.
Config files are INI-style key = value sections; every CSV starts with a
comment line carrying a short hash of the effective configuration.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import csv
import dataclasses
import hashlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import describe_crossovers, phase_diagram, value_table
from .datagen import TrainingConfig, validate_kappa
from .gradients import finite_difference_check
from .lattice import LatticeConfig, get_lattice
from .objective import SampleSet, compute_D_exact
from .trainer import (
    CheckpointError,
    TrainerState,
    TrainingDivergedError,
    checkpoint_load,
    checkpoint_save,
    dominance,
    heldout_objective,
    heldout_samples,
    new_state,
    run_training,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Invalid configuration content (unknown key, bad value, bad combination)."""


DEFAULTS = {
    "lattice": {
        "node_dims": "1,100",
        "input_window": "1,41",
        "neighbourhood_window": "1,21",
        "leakage_window": "1,15",
    },
    "training": {
        "kappa": "0.3",
        "nu": "0.1",
        "s": "2",
        "n": "400",
        "epsilon": "0.002",
        "seed": "0",
        "updates": "3200",
    },
    "run": {
        "report_every": "100",
        "checkpoint_every": "0",
        "seed_policy": "fresh",
        "heldout_size": "64",
        "channel": "a1",
    },
}

GRADCHECK_DEFAULTS = {
    "lattice": {
        "node_dims": "1,8",
        "input_window": "1,5",
        "neighbourhood_window": "1,3",
        "leakage_window": "1,3",
    },
    "training": {
        "kappa": "0.3",
        "nu": "0.0",
        "s": "1",
        "n": "3",
        "epsilon": "0.002",
        "seed": "0",
        "updates": "0",
    },
    "run": DEFAULTS["run"],
}

GRADCHECK_MAX_NODES = 16


@dataclass
class RunConfig:
    lattice: LatticeConfig
    training: TrainingConfig
    report_every: int
    checkpoint_every: int
    seed_policy: str
    heldout_size: int
    channel: str
    cfg_hash: str


def _read_config_file(path: str) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cp.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
    return {section: dict(cp[section]) for section in cp.sections()}


def merge_config(file_dict: dict | None, overrides: list[str], seed: int | None,
                 defaults: dict = DEFAULTS) -> dict[str, dict[str, str]]:
    merged = copy.deepcopy(defaults)
    if file_dict:
        for section, items in file_dict.items():
            if section not in merged:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in items.items():
                if key not in merged[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                merged[section][key] = value
    for item in overrides:
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, _, key = head.partition(".")
        if section not in merged or key not in merged[section]:
            raise ConfigError(f"unknown override target {section}.{key}")
        merged[section][key] = value
    if seed is not None:
        merged["training"]["seed"] = str(seed)
    return merged


def config_hash(merged: dict[str, dict[str, str]]) -> str:
    lines = sorted(f"{s}.{k}={v}" for s, items in merged.items() for k, v in items.items())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def _pair(text: str, what: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated integers, got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def build_run_config(merged: dict[str, dict[str, str]]) -> RunConfig:
    lat = merged["lattice"]
    tr = merged["training"]
    run = merged["run"]
    try:
        lattice = LatticeConfig(
            node_dims=_pair(lat["node_dims"], "lattice.node_dims"),
            input_window=_pair(lat["input_window"], "lattice.input_window"),
            neighbourhood_window=_pair(lat["neighbourhood_window"], "lattice.neighbourhood_window"),
            leakage_window=_pair(lat["leakage_window"], "lattice.leakage_window"),
        )
        training = TrainingConfig(
            kappa=float(tr["kappa"]),
            nu=float(tr["nu"]),
            s=int(tr["s"]),
            n=int(tr["n"]),
            epsilon=float(tr["epsilon"]),
            seed=int(tr["seed"]),
            updates=int(tr["updates"]),
        )
        report_every = int(run["report_every"])
        checkpoint_every = int(run["checkpoint_every"])
        heldout_size = int(run["heldout_size"])
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    seed_policy = run["seed_policy"]
    if seed_policy not in ("fresh", "restart"):
        raise ConfigError(f"run.seed_policy must be 'fresh' or 'restart', got {seed_policy!r}")
    channel = run["channel"]
    if channel not in ("a1", "a2"):
        raise ConfigError(f"run.channel must be 'a1' or 'a2', got {channel!r}")
    if report_every < 0 or checkpoint_every < 0 or heldout_size < 1:
        raise ConfigError("report_every/checkpoint_every must be >= 0 and heldout_size >= 1")
    return RunConfig(
        lattice=lattice,
        training=training,
        report_every=report_every,
        checkpoint_every=checkpoint_every,
        seed_policy=seed_policy,
        heldout_size=heldout_size,
        channel=channel,
        cfg_hash=config_hash(merged),
    )


def load_run_config(config_path: str | None, overrides: list[str], seed: int | None,
                    defaults: dict = DEFAULTS) -> RunConfig:
    file_dict = _read_config_file(config_path) if config_path else None
    return build_run_config(merge_config(file_dict, overrides, seed, defaults))


def _write_csv(path: str, cfg_hash: str, columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


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


# A checkpoint fixes the lattice and the training config.  A resumed run may
# still set how long it goes and how it steps (and anything under [run]);
# these map those settings onto checkpoint_load's overrides.
RESUME_SETTINGS = {"training.updates": "updates", "training.epsilon": "epsilon",
                   "run.seed_policy": "seed_policy"}


def _resume(path: str, file_dict: dict | None, overrides: list[str], seed: int | None,
            rc: RunConfig) -> TrainerState:
    """Load a checkpoint with the resume settings that were given.

    Any other [lattice] or [training] setting that was given (config file,
    --override or --seed) must equal the checkpoint's; one that differs is
    a ConfigError, because the run would otherwise ignore it.
    """
    given = {f"{section}.{key}" for section, items in (file_dict or {}).items() for key in items}
    given |= {item.partition("=")[0] for item in overrides}
    if seed is not None:
        given.add("training.seed")
    values = {"updates": rc.training.updates, "epsilon": rc.training.epsilon,
              "seed_policy": rc.seed_policy}
    ck_overrides = {key: values[key] for setting, key in RESUME_SETTINGS.items() if setting in given}
    state = checkpoint_load(path, ck_overrides or None)
    sections = {"lattice": (rc.lattice, state.lattice_cfg), "training": (rc.training, state.tcfg)}
    changed = []
    for setting in sorted(given - RESUME_SETTINGS.keys()):
        section, _, key = setting.partition(".")
        if section in sections:
            wanted, kept = sections[section]
            if getattr(wanted, key) != getattr(kept, key):
                changed.append(setting)
    if changed:
        raise ConfigError(f"a resumed run keeps the checkpoint's lattice and training settings; "
                          f"cannot change {', '.join(changed)}")
    return state


def _effective_config(merged: dict, state: TrainerState) -> dict[str, dict[str, str]]:
    """merged with the lattice, training and seed policy a resumed run uses,
    each value written as the CLI defaults write it."""
    def text(value) -> str:
        return ",".join(str(v) for v in value) if isinstance(value, tuple) else repr(value)

    out = copy.deepcopy(merged)
    for section, cfg in (("lattice", state.lattice_cfg), ("training", state.tcfg)):
        out[section] = {key: text(value) for key, value in dataclasses.asdict(cfg).items()}
    out["run"]["seed_policy"] = state.seed_policy
    return out


def cmd_train(args) -> int:
    file_dict = _read_config_file(args.config) if args.config else None
    merged = merge_config(file_dict, args.override, args.seed)
    rc = build_run_config(merged)
    if args.report_every is not None:
        rc.report_every = args.report_every
    if args.checkpoint_every is not None:
        rc.checkpoint_every = args.checkpoint_every
    if args.channel is not None:
        rc.channel = args.channel

    if args.resume:
        state = _resume(args.resume, file_dict, args.override, args.seed, rc)
        rc.lattice, rc.training, rc.seed_policy = state.lattice_cfg, state.tcfg, state.seed_policy
        rc.cfg_hash = config_hash(_effective_config(merged, state))
    else:
        state = new_state(rc.lattice, rc.training, rc.seed_policy)

    for warning in validate_kappa(rc.training, rc.lattice):
        print(f"warning: {warning}", file=sys.stderr)

    target = state.tcfg.updates
    remaining = max(0, target - state.step)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)

    heldout = heldout_samples(state.lattice_cfg, state.tcfg, rc.heldout_size)
    trace_rows = []
    history_rows = []

    def record(state: TrainerState) -> None:
        bound = heldout_objective(state, heldout)
        trace_rows.append((state.step, bound.d1, bound.d2, bound.total))
        if state.tcfg.s == 2:
            prof = dominance(state)
            for idx in range(prof.a1.size):
                history_rows.append((state.step, idx, prof.a1[idx], prof.a2[idx]))

    def on_step(state: TrainerState) -> None:
        if rc.report_every and state.step % rc.report_every == 0:
            record(state)
        if rc.checkpoint_every and state.step % rc.checkpoint_every == 0:
            checkpoint_save(state, os.path.join(out_dir, f"checkpoint_{state.step:06d}.ckpt"))

    if state.step == 0:
        record(state)
    run_training(state, remaining, on_step=on_step)
    if not trace_rows or trace_rows[-1][0] != state.step:
        record(state)

    _write_csv(os.path.join(out_dir, "objective_trace.csv"), rc.cfg_hash,
               ["step", "d1", "d2", "total"], trace_rows)
    if state.tcfg.s == 2:
        prof = dominance(state)
        rows = [(idx, prof.a1[idx], prof.a2[idx]) for idx in range(prof.a1.size)]
        _write_csv(os.path.join(out_dir, "dominance.csv"), rc.cfg_hash,
                   ["node_index", "a1", "a2"], rows)
        _write_csv(os.path.join(out_dir, "dominance_history.csv"), rc.cfg_hash,
                   ["step", "node_index", "a1", "a2"], history_rows)
        if state.lattice_cfg.node_dims[0] > 1:
            channel = prof.a1 if rc.channel == "a1" else prof.a2
            _write_pgm(os.path.join(out_dir, f"dominance_{rc.channel}.pgm"),
                       channel.reshape(state.lattice_cfg.node_dims))
    checkpoint_save(state, os.path.join(out_dir, "checkpoint_final.ckpt"))
    print(f"finished at step {state.step}; outputs in {out_dir} (config {rc.cfg_hash})")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    rc = load_run_config(args.config, args.override, args.seed,
                         defaults=DEFAULTS if args.config else GRADCHECK_DEFAULTS)
    lattice = get_lattice(rc.lattice)
    if lattice.num_nodes > GRADCHECK_MAX_NODES:
        raise ConfigError(
            f"gradcheck is limited to {GRADCHECK_MAX_NODES} nodes "
            f"(finite differencing cost), config has {lattice.num_nodes}")
    seed = rc.training.seed
    param_rng = np.random.default_rng([seed, 3])
    from .activation import NodeParams

    m, k = lattice.num_nodes, lattice.window_len
    params = NodeParams(
        weights=param_rng.uniform(-0.3, 0.3, size=(m, k)),
        biases=param_rng.uniform(-0.2, 0.2, size=m),
        ref_vectors=param_rng.uniform(-0.5, 0.5, size=(m, k)),
    )
    sample_rng = np.random.default_rng([seed, 4])
    samples = SampleSet(vectors=sample_rng.uniform(-1.0, 1.0, size=(3, lattice.input_size)))
    report = finite_difference_check(
        samples, lattice, params, lattice.leakage, float(rc.training.n),
        corrupt_first_component=args.corrupt)
    print(report.format_text())
    if report.passed(1e-5):
        print(f"PASS max relative error {report.max_rel_error:.3e} <= 1e-05")
        return EXIT_OK
    print(f"FAIL max relative error {report.max_rel_error:.3e} > 1e-05")
    return EXIT_CHECK_FAILED


def _parse_n_list(text: str) -> list[float]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("inf", "infinity"):
            values.append(math.inf)
            continue
        try:
            values.append(float(token))
        except ValueError as exc:
            raise ConfigError(f"bad n value {token!r}") from exc
    if not values:
        raise ConfigError("empty n list")
    return values


def cmd_phase(args) -> int:
    if args.m_min < 2 or args.m_max <= args.m_min or args.m_step <= 0:
        raise ConfigError("need 2 <= m-min < m-max and m-step > 0")
    n_values = _parse_n_list(args.n_list)
    cfg_hash = config_hash({"phase": {
        "m_min": str(args.m_min), "m_max": str(args.m_max),
        "m_step": str(args.m_step), "n_list": args.n_list,
    }})
    os.makedirs(args.out_dir, exist_ok=True)
    m_values = np.arange(args.m_min, args.m_max + 0.5 * args.m_step, args.m_step)

    for n in n_values:
        label = "inf" if math.isinf(n) else f"{n:g}"
        rows = value_table(m_values, n)
        _write_csv(os.path.join(args.out_dir, f"values_n{label}.csv"), cfg_hash,
                   ["M", "value_type1", "value_type2", "value_type3", "winner"], rows)
        print(describe_crossovers(n))
    diagram = phase_diagram(m_values, n_values)
    boundary_rows = [
        ("inf" if math.isinf(b.n) else f"{b.n:g}", b.m, b.lower.label, b.upper.label)
        for b in diagram.boundaries
    ]
    _write_csv(os.path.join(args.out_dir, "phase_boundaries.csv"), cfg_hash,
               ["n", "M", "optimal_below", "optimal_above"], boundary_rows)
    return EXIT_OK


def cmd_bound_oracle(args) -> int:
    m, n, count = args.nodes, args.firings, args.samples
    if m < 1 or n < 1 or count < 1 or args.dim < 1:
        raise ConfigError("nodes, firings, samples and dim must all be >= 1")
    if m ** n > 1_000_000:
        raise ConfigError(f"tuple space M^n = {m}^{n} exceeds the 1e6 enumeration guard")
    rng = np.random.default_rng([args.seed, 5])
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
    train.add_argument("--channel", choices=("a1", "a2"), default=None,
                       help="dominance channel for the 2D graymap export")
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
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
