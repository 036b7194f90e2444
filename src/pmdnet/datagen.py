"""Sinusoidal training data with interleaved independent subspaces.

Each training vector covers the whole padded input array.  With s = 2 the
input cells are split by coordinate parity into two interleaved subspaces
whose sinusoid parameters are drawn independently, so the two subsignals
are statistically independent.  Uniform noise of amplitude nu is added per
component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeConfig
from .schema import check_field_types

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrainingConfig:
    """Training-run parameters.

    kappa    sinusoid wavenumber in radians per input cell
    nu       additive uniform noise amplitude (full width)
    s        number of interleaved subspaces, 1 or 2
    n        number of node firings per input (objective weight)
    epsilon  update-rate parameter
    seed     RNG seed for the run
    updates  number of online training updates
    """

    kappa: float
    nu: float = 0.0
    s: int = 1
    n: int = 1
    epsilon: float = 0.002
    seed: int = 0
    updates: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("kappa", "nu", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if self.s not in (1, 2):
            raise ValueError("s must be 1 or 2")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.updates < 0:
            raise ValueError("updates must be nonnegative")


def parity_mask(cfg: LatticeConfig) -> np.ndarray:
    """Chessboard parity of input cells; in 1D this alternates along the
    row.  Subspace 1 owns parity 0 (even) cells."""
    d1, d2 = cfg.input_dims
    u1 = np.arange(d1)[:, None]
    u2 = np.arange(d2)[None, :]
    return ((u1 + u2) % 2).astype(np.int8)


def compose_1d(cfg: LatticeConfig, kappa: float, phases: tuple[float, ...], noise: np.ndarray) -> np.ndarray:
    """Deterministic part of gen_1d: component u is sin(kappa u + phase of
    u's subspace) + noise[u].  Exposed for exact-value tests."""
    d1, d2 = cfg.input_dims
    u = np.arange(d2, dtype=float)
    phase = np.asarray(phases)[np.arange(d2) % len(phases)]
    vals = np.sin(kappa * u + phase) + noise
    return vals.reshape(d1, d2)


def gen_1d(tc: TrainingConfig, cfg: LatticeConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one 1D training vector over the padded input array.

    A run is 1D exactly when its padded input array is one row
    (input_dims[0] == 1, so m1 = 1 and i1 = 1); any other config raises.
    With s = 2 the even cells use one random phase and the odd cells an
    independent one.  Noise is uniform in [-nu/2, nu/2] per component and
    always drawn, keeping the RNG stream layout independent of nu.
    """
    if cfg.input_dims[0] != 1:
        raise ValueError("gen_1d requires a 1D lattice (m1 = 1, i1 = 1)")
    if tc.s == 1:
        phases = (rng.uniform(0.0, TWO_PI),)
    else:
        phases = (rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
    noise = rng.uniform(-tc.nu / 2.0, tc.nu / 2.0, size=cfg.input_dims[1])
    return compose_1d(cfg, tc.kappa, phases, noise)


def gen_2d(tc: TrainingConfig, cfg: LatticeConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one 2D training vector: plane waves sin(kappa (u1 cos t + u2
    sin t) + phase) with random azimuth t, chessboard-interleaved when
    s = 2."""
    d1, d2 = cfg.input_dims
    par = parity_mask(cfg)
    u1 = np.arange(d1, dtype=float)[:, None]
    u2 = np.arange(d2, dtype=float)[None, :]
    vals = np.zeros((d1, d2))
    for k in range(tc.s):
        theta = rng.uniform(0.0, TWO_PI)
        phase = rng.uniform(0.0, TWO_PI)
        wave = np.sin(tc.kappa * (u1 * math.cos(theta) + u2 * math.sin(theta)) + phase)
        mask = par == k if tc.s == 2 else np.ones_like(par, dtype=bool)
        vals[mask] = wave[mask]
    vals += rng.uniform(-tc.nu / 2.0, tc.nu / 2.0, size=(d1, d2))
    return vals


def validate_kappa(tc: TrainingConfig, cfg: LatticeConfig) -> list[str]:
    """Check that kappa times the input window is close to a multiple of
    2 pi, which keeps the windowed signal manifold closed.

    Returns a list of warning strings (empty means fine).  Both axes are
    checked; a 1D run's input window is one cell tall (i1 = 1), so only i2
    can warn.  No warning when the ratio is at least 4: many cycles per
    window make the mismatch irrelevant.
    """
    warnings = []
    for axis in (0, 1):
        extent = cfg.input_window[axis]
        if extent == 1:
            continue
        ratio = tc.kappa * extent / TWO_PI
        deviation = abs(ratio - round(ratio))
        if deviation > 0.05 and ratio < 4.0:
            warnings.append(
                f"kappa * i{axis + 1} / 2pi = {ratio:.4f} is {deviation:.3f} away from an "
                f"integer; windowed signals will not close up"
            )
    return warnings

