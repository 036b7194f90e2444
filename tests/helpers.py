"""Helpers used only by the tests.

Readable per-node forms of quantities that the package computes in bulk:
the reference geometry (neighbourhood sets, input-window slices, flat node
indices) that the Lattice's fixed layouts are checked against, the
posteriors and the Bayes-centroid reference vectors.  Also dense renderings
of the package's fixed operators, the sample-set normalisation that the
online trainer replaces by a fixed analytic map, and the one-sample-at-a-time
forward pass and objective that the block forward is checked against.
"""

from __future__ import annotations

import numpy as np

from pmdnet.activation import DegenerateActivityError, localized_posterior_entries, stable_sigmoid
from pmdnet.objective import SampleSet, _check_posterior, bound_weights


def _check_node(cfg, y) -> tuple[int, int]:
    y1, y2 = int(y[0]), int(y[1])
    m1, m2 = cfg.node_dims
    if not (0 <= y1 < m1 and 0 <= y2 < m2):
        raise IndexError(f"node {(y1, y2)} outside lattice {cfg.node_dims}")
    return y1, y2


def _clipped_range(centre: int, half: int, size: int) -> range:
    return range(max(0, centre - half), min(size - 1, centre + half) + 1)


def neighbourhood(cfg, y) -> set:
    """Top-hat window centred on y, intersected with the node array.

    Never empty: always contains y itself.
    """
    y1, y2 = _check_node(cfg, y)
    h1 = (cfg.neighbourhood_window[0] - 1) // 2
    h2 = (cfg.neighbourhood_window[1] - 1) // 2
    m1, m2 = cfg.node_dims
    return {
        (z1, z2)
        for z1 in _clipped_range(y1, h1, m1)
        for z2 in _clipped_range(y2, h2, m2)
    }


def input_window(cfg, y) -> tuple[slice, slice]:
    """Index ranges of node y's input window in the padded input array.

    The window extent is always exactly input_window; padding guarantees it
    never clips.  Returned as half-open slices.
    """
    y1, y2 = _check_node(cfg, y)
    i1, i2 = cfg.input_window
    return slice(y1, y1 + i1), slice(y2, y2 + i2)


def flat(lattice, y) -> int:
    """Row-major flat index of node y, the inverse of lattice.coords."""
    y1, y2 = _check_node(lattice.cfg, y)
    return y1 * lattice.cfg.node_dims[1] + y2


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
    row = nbr_row(lattice, flat(lattice, y_prime))
    total = q[row].sum()
    if total <= 0.0:
        raise DegenerateActivityError(f"neighbourhood of node {tuple(y_prime)} has zero activity")
    return {lattice.coords(z): float(q[z] / total) for z in row}


def pmd_posterior(q: np.ndarray, lattice) -> np.ndarray:
    """Scalable partitioned posterior.

    Pr(y|x) = (1/M) * sum over y' in the inverse neighbourhood of y of
    Pr(y|x; y').  Sums to 1 exactly because each localized posterior
    contributes total mass 1 and there are M of them.
    """
    post = localized_posterior_entries(q, lattice)
    return lattice.nbr.rmatvec(np.ones(lattice.num_nodes), post) / lattice.num_nodes


def ref_vectors_from_posterior(
    samples: SampleSet, posterior: np.ndarray, lattice=None
) -> tuple[np.ndarray, np.ndarray]:
    """Bayes-centroid reference vectors under the empirical measure.

    x'(y) = sum_x Pr(y|x) x / sum_x Pr(y|x).  Nodes with zero total
    responsibility are flagged unattached and get a zero vector.  When a
    lattice is given the centroids are projected onto each node's input
    window (components outside are set to zero).

    Returns (ref_vectors (M, D), attached (M,) bool).
    """
    post = _check_posterior(samples, posterior)
    mass = post.sum(axis=0)
    attached = mass > 0.0
    ref = np.zeros((post.shape[1], samples.dim))
    num = post.T @ samples.vectors
    ref[attached] = num[attached] / mass[attached, None]
    if lattice is not None:
        ref = lattice.scatter_rows(ref[np.arange(lattice.num_nodes)[:, None], lattice.win_idx])
    return ref, attached


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


def forward_one(x, lattice, params) -> dict:
    """The forward pass of one input, one layer at a time on 1-D arrays,
    each product a one-vector kernel call on the layout the block path
    replaced: the fields objective.forward must match bitwise."""
    xw = np.asarray(x, dtype=float).reshape(-1)[lattice.win_idx]
    q = stable_sigmoid(np.einsum("ij,ij->i", params.weights, xw) + params.biases)
    denom = lattice.nbr.matvec(q)
    if (denom <= 0.0).any():
        dead = int(np.argmin(denom))
        raise DegenerateActivityError(f"neighbourhood of node {lattice.coords(dead)} has zero activity")
    post = q[lattice.nbr_indices] / denom[lattice.nbr_rows]
    p = lattice.nbr.rmatvec(np.ones(lattice.num_nodes), post)
    rho = lattice.leakage.rmatvec(p)
    d_win = xw - params.ref_vectors
    e = (d_win**2).sum(axis=1)
    dbar = lattice.win.rmatvec(rho, d_win.reshape(-1))
    return dict(x_windows=xw, q=q, post=post, p=p, rho=rho, d_win=d_win, e=e, dbar=dbar)


def objective_one_at_a_time(samples: SampleSet, lattice, params, n: float) -> tuple[float, float]:
    """(d1, d2) of compute_D1_D2 from forward_one, sample by sample."""
    w1, w2 = bound_weights(n, lattice.num_nodes)
    d1_acc = d2_acc = 0.0
    for x in samples.vectors:
        fw = forward_one(x, lattice, params)
        d1_acc += float(fw["rho"] @ fw["e"])
        d2_acc += float(fw["dbar"] @ fw["dbar"])
    return w1 * d1_acc / samples.size, w2 * d2_acc / samples.size
