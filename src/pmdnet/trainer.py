"""Online gradient-descent training loop.

One training vector is drawn, conditioned, and consumed per update.  Each
of the three parameter types (biases, weights, reference vectors) gets its
own update rate, recomputed for every training vector so that the mean
absolute parameter change of type t equals epsilon times the current
spread (max - min) of that type's values.

The rate is capped at RATE_CEILING = 100, a departure from the paper's
rule.  As nodes saturate, the mean |gradient| shrinks and the uncapped rate
grows without bound (past 1e11 by step 5600 of the default stripe run,
continued), until the run fails.  Within the default run's 3200 updates the
ceiling bound on none of 13 seeds measured (largest rate 83.2), so that run
follows the paper's rule; on a 20x20 lattice at the default epsilon it
binds from about step 690.

A step builds its gradients once, checks the mean |gradient| and the rate
of each type, computes its update out of place and commits it only when
every new value is finite; run_training puts the data RNG back when a step
raises, Ctrl-C included.  A step that fails or is interrupted therefore
changes nothing: parameters, rates, step count and RNG are as they were
before it.  train drives a whole run: its held-out reports and its periodic
and final checkpoints.

Checkpoints are versioned binary files whose save/load round trip is
bit-exact, including the data RNG state, so an interrupted run resumed
from a checkpoint reproduces the uninterrupted run exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .activation import NodeParams
from .datagen import TrainingConfig, gen_1d, gen_2d, parity_mask
from .gradients import GradientSet, build_state, by_kind, gradient_set_from_states
from .lattice import Lattice, LatticeConfig, get_lattice
from .objective import SampleSet, compute_D1_D2

DIAMETER_FLOOR = 1.0
GRAD_MEAN_EPS = 1e-12
# The largest finite update rate adapt_rates hands out; see the module docstring.
RATE_CEILING = 100.0

CHECKPOINT_MAGIC = b"PMDNETC1"
CHECKPOINT_VERSION = 1

# "fresh" continues the data stream across run segments; "restart" replays it
SEED_POLICIES = ("fresh", "restart")

# Every random stream of a run is seeded by [seed, id], with its id here;
# no two streams share an id, so none draws from another's sequence.
STREAMS = {
    "init": 0,
    "data": 1,
    "heldout": 2,
    "gradcheck_params": 3,
    "gradcheck_samples": 4,
    "bound_oracle": 5,
}


def stream(seed: int, name: str) -> np.random.Generator:
    """The named random stream of a seed (see STREAMS)."""
    return np.random.default_rng([seed, STREAMS[name]])


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class TrainingDivergedError(RuntimeError):
    """A non-finite gradient, update rate or parameter appeared during training."""


@dataclass
class DominanceProfile:
    """Per-node mean absolute reference-vector component over the window
    cells of each subspace.  Zero means complete detachment."""

    a1: np.ndarray
    a2: np.ndarray


@dataclass
class TrainerState:
    lattice_cfg: LatticeConfig
    tcfg: TrainingConfig
    params: NodeParams
    step: int
    rates: np.ndarray       # last applied (bias, weight, ref) rates
    diameters: np.ndarray   # last used per-type spreads
    data_rng: np.random.Generator
    seed_policy: str        # one of SEED_POLICIES

    def __post_init__(self):
        if self.seed_policy not in SEED_POLICIES:
            raise ValueError(f"seed_policy must be one of {SEED_POLICIES}, got {self.seed_policy!r}")
        if type(self.step) is not int or self.step < 0:  # a float or bool is not a step count
            raise ValueError(f"step must be an int >= 0, got {self.step!r}")
        if np.shape(self.rates) != (3,) or np.shape(self.diameters) != (3,):
            raise ValueError("rates and diameters must hold 3 values")

    @property
    def lattice(self) -> Lattice:
        return get_lattice(self.lattice_cfg)


def data_scale(tc: TrainingConfig) -> float:
    """Conditioning factor mapping the attainable generator range
    [-1 - nu/2, 1 + nu/2] onto [-1, 1].

    The online stream is unbounded, so the global affine normalisation of a
    finite sample set is replaced by this fixed analytic map (the range is
    symmetric, so no translation is needed).
    """
    return 2.0 / (2.0 + tc.nu)


def init_params(lattice: Lattice, rng: np.random.Generator) -> NodeParams:
    """Weights uniform in [-0.1, 0.1]; biases and reference vectors zero."""
    m, k = lattice.num_nodes, lattice.window_len
    return NodeParams(
        weights=rng.uniform(-0.1, 0.1, size=(m, k)),
        biases=np.zeros(m),
        ref_vectors=np.zeros((m, k)),
    )


def new_state(lattice_cfg: LatticeConfig, tcfg: TrainingConfig, seed_policy: str = "fresh") -> TrainerState:
    lattice = get_lattice(lattice_cfg)
    params = init_params(lattice, stream(tcfg.seed, "init"))
    return TrainerState(
        lattice_cfg=lattice_cfg,
        tcfg=tcfg,
        params=params,
        step=0,
        rates=np.zeros(3),
        diameters=np.ones(3),
        data_rng=stream(tcfg.seed, "data"),
        seed_policy=seed_policy,
    )


def _spread(values: np.ndarray) -> float:
    """Spread (max - min) of one parameter type, floored at 1.0.

    The floor keeps the cold start (all values identical, spread 0) moving
    and, just as importantly, keeps the early-training rate from collapsing:
    without it the spread right after the first update is ~epsilon, the mean
    step becomes epsilon * spread, and growth turns multiplicative at
    (1 + epsilon) per update, far too slow to organise in a few thousand
    updates.  With the floor the mean step is at least epsilon per update
    until the parameters genuinely occupy a region wider than 1.
    """
    # the ufunc reductions skip the Python wrappers of .max() and .min()
    spread = np.maximum.reduce(values, axis=None) - np.minimum.reduce(values, axis=None)
    return max(float(spread), DIAMETER_FLOOR)


def adapt_rates(params: NodeParams, grads: GradientSet,
                epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-type rates: epsilon * spread / (mean |gradient| + tiny), a finite
    rate capped at RATE_CEILING.

    By construction the mean absolute applied change of type t is then
    epsilon * spread_t whenever the mean gradient magnitude is nonzero and
    the ceiling does not bind.
    Returns (rates, spreads, means) ordered bias, weight, ref, where means
    holds each type's mean |gradient|.  A NaN or infinite gradient entry
    makes its type's mean non-finite, and so does a sum of finite entries
    that overflows (every weight total at 1e307, say), whose rate would
    otherwise read 0 and let the step commit no change; train_step reports
    either as a non-finite gradient.  A rate that overflows stays inf, past
    the ceiling, so that train_step reports it as a non-finite rate.
    """
    rates = np.zeros(3)
    diameters = np.zeros(3)
    means = np.zeros(3)
    for i, (_, values, grad) in enumerate(by_kind(params, grads)):
        diameters[i] = _spread(values)
        with np.errstate(over="ignore"):
            # np.abs(grad).mean() without its Python wrapper, bitwise
            means[i] = mean = float(np.add.reduce(np.abs(grad), axis=None)) / grad.size
            # a huge epsilon overflows to inf here; train_step reports that
            rate = epsilon * diameters[i] / (mean + GRAD_MEAN_EPS)
        rates[i] = RATE_CEILING if RATE_CEILING < rate < np.inf else rate
    return rates, diameters, means


def train_step(state: TrainerState, x: np.ndarray) -> TrainerState:
    """One online update from one (already conditioned) training vector
    over the padded input array."""
    lattice = state.lattice
    grads = gradient_set_from_states([build_state(x, lattice, state.params)], lattice,
                                     float(state.tcfg.n))
    rates, diameters, means = adapt_rates(state.params, grads, state.tcfg.epsilon)
    for what, values in (("gradient", means), ("update rate", rates)):
        if not np.isfinite(values).all():
            raise TrainingDivergedError(f"non-finite {what} at step {state.step}")
    # each new value is written over its gradient total, which this step
    # owns; an overflow is reported by the check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        new = [np.subtract(values, np.multiply(rate, grad, out=grad), out=grad)
               for rate, (_, values, grad) in zip(rates, by_kind(state.params, grads))]
    if not all(np.isfinite(arr).all() for arr in new):
        raise TrainingDivergedError(f"non-finite parameter at step {state.step}")
    state.params.biases, state.params.weights, state.params.ref_vectors = new
    state.rates = rates
    state.diameters = diameters
    state.step += 1
    return state


def _draw(lattice_cfg: LatticeConfig, tcfg: TrainingConfig, rng: np.random.Generator) -> np.ndarray:
    """One conditioned training vector over the padded input array: a 1D
    stripe when that array is one row (see gen_1d), else 2D plane waves."""
    gen = gen_1d if lattice_cfg.input_dims[0] == 1 else gen_2d
    return gen(tcfg, lattice_cfg, rng) * data_scale(tcfg)


def next_vector(state: TrainerState) -> np.ndarray:
    """Draw and condition the next training vector from the state's RNG."""
    return _draw(state.lattice_cfg, state.tcfg, state.data_rng)


def run_training(state: TrainerState, updates: int, on_step=None) -> TrainerState:
    """Run a segment of online updates.

    Under the "restart" seed policy every segment replays the same data
    stream (a finite training set revisited); under "fresh" the stream
    continues from the stored RNG state.  A step that fails or is
    interrupted leaves the RNG where it was before that step's draw.
    """
    if state.seed_policy == "restart":
        state.data_rng = stream(state.tcfg.seed, "data")
    for _ in range(updates):
        rng_state = state.data_rng.bit_generator.state
        try:
            train_step(state, next_vector(state))
        except BaseException:  # Ctrl-C included
            state.data_rng.bit_generator.state = rng_state
            raise
        if on_step is not None:
            on_step(state)
    return state


def heldout_samples(lattice_cfg: LatticeConfig, tcfg: TrainingConfig, size: int) -> SampleSet:
    """Frozen evaluation batch from a dedicated stream (never touches the
    training stream), conditioned like the training data."""
    rng = stream(tcfg.seed, "heldout")
    return SampleSet(vectors=np.array([_draw(lattice_cfg, tcfg, rng).reshape(-1) for _ in range(size)]))


def heldout_objective(state: TrainerState, samples: SampleSet):
    return compute_D1_D2(samples, state.lattice, state.params, float(state.tcfg.n))


def train(state: TrainerState, heldout: SampleSet, report_every: int, checkpoint_every: int,
          out_dir: str, on_report) -> None:
    """Run state on to tcfg.updates.  on_report(state, held-out bound) is called at
    step 0 of a fresh run, every report_every steps and at the last step (once
    for a run already there); checkpoint_NNNNNN.ckpt is written every
    checkpoint_every steps (0: never), and checkpoint_final.ckpt at the end."""
    def on_step(state: TrainerState) -> None:
        if state.step == state.tcfg.updates or (report_every and state.step % report_every == 0):
            on_report(state, heldout_objective(state, heldout))
        if checkpoint_every and state.step % checkpoint_every == 0:
            checkpoint_save(state, os.path.join(out_dir, f"checkpoint_{state.step:06d}.ckpt"))
    if state.step == 0 or state.step >= state.tcfg.updates:
        on_report(state, heldout_objective(state, heldout))
    run_training(state, max(0, state.tcfg.updates - state.step), on_step=on_step)
    checkpoint_save(state, os.path.join(out_dir, "checkpoint_final.ckpt"))


def dominance_arrays(params: NodeParams, lattice: Lattice, parity: np.ndarray) -> DominanceProfile:
    """a_k(y) = mean |ref-vector component| over window cells of parity k.

    A window containing no cell of a parity (only possible for 1x1 input
    windows) contributes 0 for that subspace.
    """
    par_win = parity.reshape(-1)[lattice.win_idx]
    absr = np.abs(params.ref_vectors)
    out = []
    for k in (0, 1):
        mask = par_win == k
        counts = mask.sum(axis=1)
        sums = (absr * mask).sum(axis=1)
        out.append(np.divide(sums, counts, out=np.zeros(lattice.num_nodes), where=counts > 0))
    return DominanceProfile(a1=out[0], a2=out[1])


def stripe_period(profile: DominanceProfile) -> float:
    """The dominant period, in nodes, of a 1D run's stripes: the length of
    the interior of a1 - a2 (the outer tenth at each end dropped, nodes
    10-89 of 100) over the strongest nonzero frequency of its spectrum,
    with the interior's mean removed."""
    signal = profile.a1 - profile.a2
    cut = signal.size // 10
    signal = signal[cut:signal.size - cut]
    if signal.size < 2:
        raise ValueError(f"a stripe period needs at least 2 interior nodes, got {signal.size}")
    signal = signal - signal.mean()
    spectrum = np.abs(np.fft.rfft(signal))
    return signal.size / (int(np.argmax(spectrum[1:])) + 1)


def dominance(state: TrainerState) -> DominanceProfile:
    if state.tcfg.s != 2:
        raise ValueError("dominance requires s = 2 (two subspaces to compare)")
    return dominance_arrays(state.params, state.lattice, parity_mask(state.lattice_cfg))


def _header_dict(state: TrainerState) -> dict:
    return {
        "lattice": dataclasses.asdict(state.lattice_cfg),
        "training": dataclasses.asdict(state.tcfg),
        "seed_policy": state.seed_policy,
        "step": state.step,
        "rates": [float(v) for v in state.rates],
        "diameters": [float(v) for v in state.diameters],
        "rng": state.data_rng.bit_generator.state,
    }


def checkpoint_save(state: TrainerState, path) -> None:
    """Versioned binary checkpoint.

    Layout: 8-byte magic, uint32 version, uint64 header length, JSON header
    (config, step, rates, RNG state; sorted keys), then the weights, biases
    and ref_vectors arrays as little-endian float64 in C order, then a
    SHA-256 checksum of everything before it.
    """
    header = json.dumps(_header_dict(state), sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<Q", len(header))
    blob += header
    for arr in (state.params.weights, state.params.biases, state.params.ref_vectors):
        blob += np.asarray(arr, dtype="<f8").tobytes()  # tobytes writes C order
    blob += hashlib.sha256(bytes(blob)).digest()
    # write a temporary file beside the target and rename it over the
    # target, so a failed write never leaves a truncated checkpoint behind
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(blob))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def checkpoint_load(path) -> TrainerState:
    """Restore the TrainerState that was saved; load(save(state)) is
    bit-identical."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 + 4 + 8 + 32:
        raise CheckpointError("checkpoint file is truncated")
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    digest = blob[-32:]
    if hashlib.sha256(blob[:-32]).digest() != digest:
        raise CheckpointError("checksum mismatch: checkpoint is corrupt")
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    header_start = 20
    try:
        header = json.loads(blob[header_start:header_start + header_len].decode("utf-8"))
        # the sections hold exactly the config dataclasses' fields
        lattice_cfg = LatticeConfig(**header["lattice"])
        m, k = lattice_cfg.num_nodes, lattice_cfg.window_len
        arrays, offset = [], header_start + header_len
        for nbytes in (m * k * 8, m * 8, m * k * 8):
            chunk = blob[offset:offset + nbytes]
            if len(chunk) != nbytes:
                raise CheckpointError("checkpoint file is truncated")
            arrays.append(np.frombuffer(chunk, dtype="<f8").copy())
            offset += nbytes
        if offset != len(blob) - 32:
            raise CheckpointError("checkpoint has trailing garbage")
        rng_state = header["rng"]
        if rng_state.get("bit_generator") != "PCG64":
            raise CheckpointError(f"unsupported RNG {rng_state.get('bit_generator')!r}")
        data_rng = np.random.Generator(np.random.PCG64())
        data_rng.bit_generator.state = rng_state
        return TrainerState(
            lattice_cfg=lattice_cfg,
            tcfg=TrainingConfig(**header["training"]),
            params=NodeParams(weights=arrays[0].reshape(m, k), biases=arrays[1],
                              ref_vectors=arrays[2].reshape(m, k)),
            step=header["step"],  # a JSON int; a float or bool is malformed
            rates=np.array(header["rates"], dtype=float),
            diameters=np.array(header["diameters"], dtype=float),
            data_rng=data_rng,
            seed_policy=header["seed_policy"],
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
