"""Node activities and localized posteriors: the first layers of
objective.forward.

The activity Q(x|y) of node y is a sigmoid of w(y) . x + b(y) evaluated on
the node's input window.  The localized posterior Pr(y|x; y') normalises
the activities over one neighbourhood window N(y'); its entries are kept in
the lattice's neighbourhood layout.  The partitioned posterior (the mass
each node collects from the windows containing it) and the leaked posterior
are formed in objective.forward.

Each function takes one input's arrays.  On a lattice of B stacked copies
(lattice.Lattice) that one input is B inputs side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice


class DegenerateActivityError(ValueError):
    """Raised when a posterior denominator is zero (all activity dead).

    A sigmoid is positive in exact arithmetic, but not in float64: below a
    logit of about -745 exp underflows and stable_sigmoid returns exactly 0,
    so a neighbourhood whose logits are all that negative has no activity.
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


def stable_sigmoid(z):
    """1 / (1 + exp(-z)) without overflow for large |z|."""
    z = np.asarray(z, dtype=float)
    # exp(-|z|) <= 1 is exp(-z) on z >= 0 and exp(z) below it
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def activities(x_windows: np.ndarray, params: NodeParams) -> np.ndarray:
    """Sigmoid activities of all nodes, (M,) from one input's windowed view
    x_windows (M, K) = lattice.gather(x), or (B, M) from the (B, M, K)
    windows of a lattice of B copies, over which the (M, K) parameters
    broadcast.  Each copy's logits are bitwise its own einsum."""
    return stable_sigmoid(np.einsum("ij,...ij->...i", params.weights, x_windows) + params.biases)


def window_denominators(q: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Per-neighbourhood activity totals: denom[y'] = sum over N(y') of Q.
    A zero total is reported at the first node that has one; on a lattice
    of copies, that is in the first input that has one, named in its copy."""
    denom = lattice.nbr.matvec(q)
    if (denom <= 0.0).any():
        dead = int(np.argmin(denom))
        raise DegenerateActivityError(f"neighbourhood of node {lattice.coords(dead)} has zero activity")
    return denom


def localized_posterior_entries(q: np.ndarray, lattice: Lattice) -> np.ndarray:
    """The entries of P in the lattice's neighbourhood layout: entry j is
    Pr(nbr_indices[j] | x; nbr_rows[j]).  Each entry is one quotient
    Q / denom, so it stays in [0, 1] even where the activities are
    subnormal and 1 / denom would overflow."""
    q = np.asarray(q, dtype=float)
    return q[lattice.nbr_indices] / window_denominators(q, lattice)[lattice.nbr_rows]


def localized_posterior_rows(q: np.ndarray, lattice: Lattice):
    """All localized posteriors as a sparse CSR matrix P with
    P[y', y] = Pr(y|x; y') on row support N(y').  Rows sum to 1.  The one function
    that imports scipy.sparse (lazily); kept for the tests and the bench's tracer,
    no command calls it."""
    from scipy import sparse

    layout = lattice.nbr
    return sparse.csr_array(
        (localized_posterior_entries(q, lattice), layout.indices, layout.indptr), shape=layout.shape
    )

