"""Distortion functionals and reference-vector computations.

Two routes are implemented on purpose:

* the model objective (compute_D1_D2) evaluated with the scalable leaked
  posterior and windowed residuals, which is what training minimises; its
  per-input pass (forward) is the one the gradients build on;
* brute-force oracles (compute_D_exact, bound_from_posterior) that evaluate
  the exact multiple-firing distortion and its upper-bound pieces for any
  given posterior, used to verify the decomposition and stationarity.

The input density is always an empirical uniform measure over a finite
sample set, so every integral is a finite sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .activation import NodeParams, localized_posterior_entries, stable_sigmoid
from .lattice import Lattice, LeakageMatrix

ENUMERATION_GUARD = 1_000_000


class StationaritySolveError(RuntimeError):
    """The stationarity linear system could not be solved reliably."""


@dataclass(frozen=True)
class SampleSet:
    """Finite empirical input distribution with uniform weights 1/S."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValueError("SampleSet needs a nonempty (S, D) array")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample vectors must be finite")
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class BoundValue:
    """Upper-bound pieces: d1 is the incoherent term, d2 the coherent one."""

    d1: float
    d2: float
    n: float

    @property
    def total(self) -> float:
        return self.d1 + self.d2


class ExactBound(NamedTuple):
    distortion: float
    d1: float
    d2: float
    d3: float


def _check_posterior(samples: SampleSet, posterior: np.ndarray) -> np.ndarray:
    post = np.asarray(posterior, dtype=float)
    if post.ndim != 2 or post.shape[0] != samples.size:
        raise ValueError("posterior must be (S, M)")
    return post


def ref_vectors_from_posterior(
    samples: SampleSet, posterior: np.ndarray, lattice: Lattice | None = None
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


def bound_from_posterior(
    samples: SampleSet, posterior: np.ndarray, ref_vectors: np.ndarray, n: float
) -> BoundValue:
    """Upper-bound pieces for an arbitrary fixed posterior and arbitrary
    reference vectors, full-dimensional (no window restriction).

    d1 = (2/n)   <sum_y Pr(y|x) ||x - x'(y)||^2>
    d2 = (2(n-1)/n) <|| sum_y Pr(y|x) (x - x'(y)) ||^2>
    """
    post = _check_posterior(samples, posterior)
    x = samples.vectors
    ref = np.asarray(ref_vectors, dtype=float)
    diff_sq = ((x[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
    d1 = (2.0 / n) * float((post * diff_sq).sum(axis=1).mean())
    resid = x - post @ ref
    d2 = (2.0 * (n - 1.0) / n) * float((resid**2).sum(axis=1).mean())
    return BoundValue(d1=d1, d2=d2, n=n)


@dataclass
class Forward:
    """One input vector's pass through the network.

    x_windows  (M, K) the input restricted to each node's window
    q          (M,) sigmoid activities
    post       (nnz,) the localized posteriors P[y', y] = Pr(y|x; y'), in
               the lattice's neighbourhood layout (row nbr_rows[j], column
               nbr_indices[j]); P is never built as a matrix
    p          (M,) column sums of P: the mass node y collects
    rho        (M,) leaked weights L^T p
    d_win      (M, K) windowed residuals x - x'(y)
    e          (M,) squared residual norms
    dbar       (D,) coherent residual sum_y rho_y d_y in full input space
    """

    x_windows: np.ndarray
    q: np.ndarray
    post: np.ndarray
    p: np.ndarray
    rho: np.ndarray
    d_win: np.ndarray
    e: np.ndarray
    dbar: np.ndarray


def forward(x: np.ndarray, lattice: Lattice, params: NodeParams, leakage: LeakageMatrix) -> Forward:
    """Activities, posterior, leaked weights and residuals for one input."""
    xw = lattice.gather(x)
    q = stable_sigmoid(np.einsum("ij,ij->i", params.weights, xw) + params.biases)
    post = localized_posterior_entries(q, lattice)
    # column sums of P, added in the same order as a CSR column sum
    p = np.bincount(lattice.nbr_indices, weights=post, minlength=lattice.num_nodes)
    rho = leakage.apply_transpose(p)
    d_win = xw - params.ref_vectors
    e = (d_win**2).sum(axis=1)
    dbar = np.bincount(lattice.win_idx.reshape(-1), weights=(rho[:, None] * d_win).reshape(-1),
                       minlength=lattice.input_size)
    return Forward(x_windows=xw, q=q, post=post, p=p, rho=rho, d_win=d_win, e=e, dbar=dbar)


def compute_D1_D2(
    samples: SampleSet, lattice: Lattice, params: NodeParams, leakage: LeakageMatrix, n: float
) -> BoundValue:
    """Model objective with the leaked scalable posterior.

    The per-node weight is rho(y) = (L^T p)_y where p_y sums the localized
    posteriors of every window containing y.  Residuals are windowed: only
    components inside node y's input window contribute for node y.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = lattice.num_nodes
    d1_acc = 0.0
    d2_acc = 0.0
    for x in samples.vectors:
        fw = forward(x, lattice, params, leakage)
        d1_acc += float(fw.rho @ fw.e)
        d2_acc += float(fw.dbar @ fw.dbar)
    s = samples.size
    d1 = 2.0 / (n * m) * d1_acc / s
    d2 = 2.0 * (n - 1.0) / (n * m * m) * d2_acc / s
    return BoundValue(d1=d1, d2=d2, n=n)


def _tuple_probs(row: np.ndarray, n: int) -> np.ndarray:
    """Product probabilities over all M^n firing tuples, row-major order
    (first firing is the slowest index)."""
    probs = row
    for _ in range(n - 1):
        probs = (probs[:, None] * row[None, :]).reshape(-1)
    return probs


def compute_D_exact(
    samples: SampleSet,
    posterior: np.ndarray | None = None,
    n: int = 1,
    joint: np.ndarray | None = None,
) -> ExactBound:
    """Exact multiple-firing distortion and its decomposition, by direct
    enumeration of all M^n firing tuples.  Pure oracle: no windows.

    With `posterior` (S, M) the firing slots are independent.  With `joint`
    (S, M, M) an explicit symmetric pair joint is used and n must be 2.
    All tuple-level reference vectors are empirical Bayes centroids.
    Returns (distortion, d1, d2, d3) with distortion = d1 + d2 - d3 up to
    rounding and d3 >= 0.
    """
    x = samples.vectors
    s, dim = x.shape
    if joint is not None:
        if n != 2:
            raise ValueError("explicit joint tables are supported for n = 2 only")
        jt = np.asarray(joint, dtype=float)
        if jt.shape[0] != s or jt.shape[1] != jt.shape[2]:
            raise ValueError("joint must be (S, M, M)")
        if np.any(jt < -1e-15):
            raise ValueError("joint entries must be nonnegative")
        if not np.allclose(jt, np.swapaxes(jt, 1, 2), atol=1e-12):
            raise ValueError("joint must be symmetric in the firing slots")
        if not np.allclose(jt.sum(axis=(1, 2)), 1.0, atol=1e-9):
            raise ValueError("joint rows must sum to 1")
        m = jt.shape[1]
        mar1 = jt.sum(axis=2)
    else:
        if posterior is None:
            raise ValueError("either posterior or joint is required")
        post = _check_posterior(samples, posterior)
        m = post.shape[1]
        if not np.allclose(post.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("posterior rows must sum to 1")
        if m**n > ENUMERATION_GUARD:
            raise ValueError(f"M^n = {m**n} exceeds enumeration guard {ENUMERATION_GUARD}")
        mar1 = post

    # single-firing Bayes centroids, zero where a node carries no mass
    pr_y = mar1.mean(axis=0)
    ref_y = np.zeros((m, dim))
    live = pr_y > 0.0
    ref_y[live] = (mar1.T @ x)[live] / (s * pr_y[live, None])

    d1 = 0.0
    for i in range(s):
        diff_sq = ((x[i][None, :] - ref_y) ** 2).sum(axis=1)
        d1 += float(mar1[i] @ diff_sq)
    d1 *= 2.0 / (n * s)

    if joint is not None:
        # tuple-level centroids over ordered pairs
        pr_t = jt.mean(axis=0)
        num_t = np.einsum("sij,sd->ijd", jt, x) / s
        ref_t = np.zeros((m, m, dim))
        live_t = pr_t > 0.0
        ref_t[live_t] = num_t[live_t] / pr_t[live_t, None]

        d_total = 0.0
        d2 = 0.0
        for i in range(s):
            diff = x[i][None, None, :] - ref_t
            d_total += float((jt[i] * (diff**2).sum(axis=2)).sum())
            dmat = x[i][None, :] - ref_y
            d2 += float(np.einsum("ab,ad,bd->", jt[i], dmat, dmat))
        d_total *= 2.0 / s
        d2 *= 2.0 * (n - 1.0) / (n * s)

        centroid_mean = 0.5 * (ref_y[:, None, :] + ref_y[None, :, :])
        d3 = 2.0 * float((pr_t * ((ref_t - centroid_mean) ** 2).sum(axis=2)).sum())
        return ExactBound(distortion=d_total, d1=d1, d2=d2, d3=d3)

    t = m**n
    pr_t = np.zeros(t)
    num_t = np.zeros((t, dim))
    for i in range(s):
        probs = _tuple_probs(post[i], n)
        pr_t += probs / s
        num_t += probs[:, None] * x[i][None, :] / s
    ref_t = np.zeros((t, dim))
    live_t = pr_t > 0.0
    ref_t[live_t] = num_t[live_t] / pr_t[live_t, None]

    d_total = 0.0
    d2 = 0.0
    for i in range(s):
        probs = _tuple_probs(post[i], n)
        diff = x[i][None, :] - ref_t
        d_total += float(probs @ (diff**2).sum(axis=1))
        resid = x[i] - post[i] @ ref_y
        d2 += float(resid @ resid)
    d_total *= 2.0 / s
    d2 *= 2.0 * (n - 1.0) / (n * s)

    slots = np.array(np.unravel_index(np.arange(t), (m,) * n))
    centroid_mean = ref_y[slots].mean(axis=0)
    d3 = 2.0 * float(pr_t @ ((ref_t - centroid_mean) ** 2).sum(axis=1))
    return ExactBound(distortion=d_total, d1=d1, d2=d2, d3=d3)


def stationary_form_value(
    samples: SampleSet, posterior: np.ndarray, ref_vectors: np.ndarray, n: float
) -> float:
    """Value of d1 + d2 at a stationary point, with the x-only additive
    constant dropped:

    -(2/n) <sum_y Pr(y|x) ||x'(y)||^2> - (2(n-1)/n) <|| sum_y Pr(y|x) x'(y) ||^2>

    The dropped constant is 2 <||x||^2>.
    """
    post = _check_posterior(samples, posterior)
    ref = np.asarray(ref_vectors, dtype=float)
    norms = (ref**2).sum(axis=1)
    term1 = float((post @ norms).mean())
    coherent = post @ ref
    term2 = float((coherent**2).sum(axis=1).mean())
    return -(2.0 / n) * term1 - (2.0 * (n - 1.0) / n) * term2


def solve_stationary_refvectors(
    samples: SampleSet, posterior: np.ndarray, n: float, cond_limit: float = 1e12
) -> np.ndarray:
    """Solve the stationarity condition of the fixed-posterior bound for the
    reference vectors:

    n <x|y> = x'(y) + (n-1) sum_y' <Pr(y'|x)|y> x'(y')

    where <.|y> is the conditional empirical average given node y.  Dense
    linear solve; raises StationaritySolveError with the condition number if
    the system is unreliable.
    """
    post = _check_posterior(samples, posterior)
    x = samples.vectors
    s, m = post.shape[0], post.shape[1]
    pr_y = post.mean(axis=0)
    if np.any(pr_y <= 0.0):
        dead = int(np.argmin(pr_y))
        raise StationaritySolveError(f"node {dead} has zero total responsibility")
    w = post / (s * pr_y[None, :])
    b = w.T @ x
    c = w.T @ post
    a = np.eye(m) + (n - 1.0) * c
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > cond_limit:
        raise StationaritySolveError(f"stationarity system is ill conditioned: cond = {cond:.3e}")
    return np.linalg.solve(a, n * b)
