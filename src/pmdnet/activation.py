"""Node activities and posterior probability constructions.

The activity Q(x|y) of node y is a sigmoid of w(y) . x + b(y) evaluated on
the node's input window.  Posteriors come in four flavours: the simple
normalised posterior, the localized posterior over one neighbourhood
window, the scalable partitioned posterior (average of localized posteriors
over all windows containing the node), and the leaked posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, LatticeConfig, LeakageMatrix, NodeIndex, get_lattice


class DegenerateActivityError(ValueError):
    """Raised when a posterior denominator is zero (all activity dead).

    Cannot happen with sigmoid activities, which are strictly positive;
    threshold activities can trigger it.
    """


@dataclass
class NodeParams:
    """Per-node parameters, each confined to the node's input window.

    weights      (M, K) with K = i1 * i2
    biases       (M,)
    ref_vectors  (M, K) windowed reference vectors
    """

    weights: np.ndarray
    biases: np.ndarray
    ref_vectors: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        self.ref_vectors = np.asarray(self.ref_vectors, dtype=float)
        if self.weights.ndim != 2 or self.weights.shape != self.ref_vectors.shape:
            raise ValueError("weights and ref_vectors must both be (M, K)")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError("biases must be (M,)")
        for arr in (self.weights, self.biases, self.ref_vectors):
            if not np.all(np.isfinite(arr)):
                raise ValueError("node parameters must be finite")

    @classmethod
    def zeros(cls, lattice: Lattice) -> "NodeParams":
        m, k = lattice.num_nodes, lattice.window_len
        return cls(np.zeros((m, k)), np.zeros(m), np.zeros((m, k)))

    def copy(self) -> "NodeParams":
        return NodeParams(self.weights.copy(), self.biases.copy(), self.ref_vectors.copy())


def stable_sigmoid(z):
    """1 / (1 + exp(-z)) without overflow for large |z|."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def activity_sigmoid(x_window: np.ndarray, weights: np.ndarray, bias: float) -> float:
    """Sigmoid activity of one node on its windowed input."""
    x_window = np.asarray(x_window, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x_window.shape != weights.shape:
        raise ValueError(f"window shape {x_window.shape} != weight shape {weights.shape}")
    return float(stable_sigmoid(np.dot(weights, x_window) + bias))


def activities(x: np.ndarray, lattice: Lattice, params: NodeParams) -> np.ndarray:
    """Sigmoid activities of all nodes for one input vector, shape (M,)."""
    xw = lattice.gather(x)
    logits = np.einsum("ij,ij->i", params.weights, xw) + params.biases
    return stable_sigmoid(logits)


def simple_posterior(q: np.ndarray) -> np.ndarray:
    """Normalise activities over the whole lattice: Q(y) / sum Q."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or not np.all(np.isfinite(q)):
        raise ValueError("activities must be finite and nonnegative")
    total = q.sum()
    if total <= 0.0:
        raise DegenerateActivityError("all activities are zero")
    return q / total


def _as_lattice(obj) -> Lattice:
    if isinstance(obj, Lattice):
        return obj
    if isinstance(obj, LatticeConfig):
        return get_lattice(obj)
    raise TypeError(f"expected Lattice or LatticeConfig, got {type(obj)!r}")


def window_denominators(q: np.ndarray, lattice) -> np.ndarray:
    """Per-neighbourhood activity totals: denom[y'] = sum over N(y') of Q."""
    lat = _as_lattice(lattice)
    q = np.asarray(q, dtype=float)
    if q.shape != (lat.num_nodes,):
        raise ValueError("Q must have one entry per node")
    denom = lat.nbr_matrix @ q
    if np.any(denom <= 0.0):
        dead = int(np.argmin(denom))
        raise DegenerateActivityError(f"neighbourhood of node {lat.coords(dead)} has zero activity")
    return denom


def localized_posterior(q: np.ndarray, cfg, y_prime: NodeIndex) -> dict[NodeIndex, float]:
    """Posterior restricted to the neighbourhood of y':
    Pr(y|x; y') = Q(y) / sum over N(y') of Q, supported on N(y') only."""
    lat = _as_lattice(cfg)
    q = np.asarray(q, dtype=float)
    row = lat.nbr_row(lat.flat(y_prime))
    total = q[row].sum()
    if total <= 0.0:
        raise DegenerateActivityError(f"neighbourhood of node {tuple(y_prime)} has zero activity")
    return {lat.coords(z): float(q[z] / total) for z in row}


def localized_posterior_entries(q: np.ndarray, lattice: Lattice) -> np.ndarray:
    """The entries of P in the lattice's neighbourhood layout: entry j is
    Pr(nbr_indices[j] | x; nbr_rows[j]).  Each entry is one quotient
    Q / denom, so it stays in [0, 1] even where the activities are
    subnormal and 1 / denom would overflow."""
    q = np.asarray(q, dtype=float)
    return q[lattice.nbr_indices] / window_denominators(q, lattice)[lattice.nbr_rows]


def localized_posterior_rows(q: np.ndarray, lattice):
    """All localized posteriors as a sparse CSR matrix P with
    P[y', y] = Pr(y|x; y') on row support N(y').  Rows sum to 1."""
    from scipy import sparse

    lat = _as_lattice(lattice)
    return sparse.csr_array(
        (localized_posterior_entries(q, lat), lat.nbr_indices, lat.nbr_indptr),
        shape=(lat.num_nodes, lat.num_nodes),
    )


def pmd_posterior(q: np.ndarray, cfg) -> np.ndarray:
    """Scalable partitioned posterior.

    Pr(y|x) = (1/M) * sum over y' in the inverse neighbourhood of y of
    Pr(y|x; y').  Sums to 1 exactly because each localized posterior
    contributes total mass 1 and there are M of them.
    """
    lat = _as_lattice(cfg)
    post = localized_posterior_entries(q, lat)
    return np.bincount(lat.nbr_indices, weights=post, minlength=lat.num_nodes) / lat.num_nodes


def apply_leakage(post: np.ndarray, leakage: LeakageMatrix) -> np.ndarray:
    """Leaked posterior: out(y) = sum_y' Pr(y|y') post(y').

    With L[y, y'] = Pr(y'|y) this is L^T applied to the posterior; row
    stochasticity of L preserves normalisation.
    """
    post = np.asarray(post, dtype=float)
    if post.shape != (leakage.num_nodes,):
        raise ValueError("posterior length does not match leakage matrix")
    return leakage.apply_transpose(post)
