"""Helpers used only by the tests.

Readable per-node forms of quantities that the package computes in bulk,
dense renderings of its fixed operators, and the sample-set normalisation
that the online trainer replaces by a fixed analytic map.
"""

from __future__ import annotations

import numpy as np

from pmdnet.activation import DegenerateActivityError, stable_sigmoid
from pmdnet.lattice import neighbourhood
from pmdnet.objective import SampleSet


def dense_operator(layout, data=None) -> np.ndarray:
    """A lattice.CSRLayout as a dense matrix, read from its own CSR arrays
    with its stored entries or with data: the leakage L is
    dense_operator(lattice.leakage)."""
    out = np.zeros(layout.shape)
    rows = np.repeat(np.arange(layout.shape[0]), np.diff(layout.indptr))
    out[rows, layout.indices] = layout.data if data is None else data
    return out


def kernels(state):
    """Per-sample kernels before coefficients: f1 = rho d and f2 = rho dbar
    windowed (M, K), and the state's own g1 and g2 per node (M,)."""
    return state.rho[:, None] * state.d_win, state.rho[:, None] * state.dbar_win, state.g1, state.g2


def nbr_row(lattice, y_flat: int) -> np.ndarray:
    """Flat indices of N(y) for node y_flat, read from the lattice's
    neighbourhood layout."""
    indptr = lattice.nbr.indptr
    return lattice.nbr_indices[indptr[y_flat]:indptr[y_flat + 1]]


def inverse_neighbourhood(cfg, y) -> set:
    """The set of nodes whose neighbourhood contains y.

    Computed by a direct scan of every node's neighbourhood.  Equality with
    neighbourhood(cfg, y) is a property of symmetric truncated top-hats, not
    an assumption made here.
    """
    y = (int(y[0]), int(y[1]))
    m1, m2 = cfg.node_dims
    return {(z1, z2) for z1 in range(m1) for z2 in range(m2) if y in neighbourhood(cfg, (z1, z2))}


def activity_sigmoid(x_window: np.ndarray, weights: np.ndarray, bias: float) -> float:
    """Sigmoid activity of one node on its windowed input."""
    x_window = np.asarray(x_window, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x_window.shape != weights.shape:
        raise ValueError(f"window shape {x_window.shape} != weight shape {weights.shape}")
    return float(stable_sigmoid(np.dot(weights, x_window) + bias))


def simple_posterior(q: np.ndarray) -> np.ndarray:
    """Normalise activities over the whole lattice: Q(y) / sum Q."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or not np.all(np.isfinite(q)):
        raise ValueError("activities must be finite and nonnegative")
    total = q.sum()
    if total <= 0.0:
        raise DegenerateActivityError("all activities are zero")
    return q / total


def localized_posterior(q: np.ndarray, lattice, y_prime) -> dict:
    """Posterior restricted to the neighbourhood of y':
    Pr(y|x; y') = Q(y) / sum over N(y') of Q, supported on N(y') only."""
    q = np.asarray(q, dtype=float)
    row = nbr_row(lattice, lattice.flat(y_prime))
    total = q[row].sum()
    if total <= 0.0:
        raise DegenerateActivityError(f"neighbourhood of node {tuple(y_prime)} has zero activity")
    return {lattice.coords(z): float(q[z] / total) for z in row}


class DegenerateDataError(ValueError):
    """Raised when a sample set cannot be normalised (constant data)."""


def normalize_set(samples: SampleSet) -> SampleSet:
    """Affine map sending the global minimum to -1 and maximum to +1, the
    same map for every component of every vector.  Idempotent."""
    lo = float(samples.vectors.min())
    hi = float(samples.vectors.max())
    if hi <= lo:
        raise DegenerateDataError("constant sample set cannot be normalised")
    scale = 2.0 / (hi - lo)
    return SampleSet(vectors=(samples.vectors - lo) * scale - 1.0)
