"""Distortion functionals and reference-vector computations.

Two routes are implemented on purpose:

* the model objective (compute_D1_D2) evaluated with the scalable leaked
  posterior and windowed residuals, which is what training minimises; its
  per-input pass (forward) is the one the gradients build on, and it runs
  a block of inputs as one input to a lattice of stacked copies;
* brute-force oracles (compute_D_exact, bound_from_posterior) that evaluate
  the exact multiple-firing distortion and its upper-bound pieces for any
  given posterior, used to verify the decomposition and stationarity;
  compute_D_exact runs one tuple enumeration, behind one set of input
  checks, for independent firings and for an explicit pair joint alike.

The input density is always an empirical uniform measure over a finite
sample set, so every integral is a finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .activation import NodeParams, activities, localized_posterior_entries
from .lattice import BlockBuffers, Lattice, get_lattice

ENUMERATION_GUARD = 1_000_000
# solve_stationary_refvectors refuses a system whose condition number exceeds this
STATIONARY_COND_LIMIT = 1e12
# The most firings the guard admits at M = 2, floor(log2 ENUMERATION_GUARD).
# It also bounds n at M = 1, where M^n = 1 would pass any n.
MAX_FIRINGS = ENUMERATION_GUARD.bit_length() - 1
# compute_D1_D2 runs forward on blocks of BLOCK_CELLS // (M K) samples, at
# least one, each block as one input to that many stacked lattice copies,
# which write into their lattice's BlockBuffers.  Per sample over 64 random
# samples (the fastest of 5 repeats, three runs, 2-core Xeon VM), in blocks
# of 1 / 2 / 4 / 8 / 16:
#   stripe,  M K = 4100:     45-46 / 35-37 / 29-31 / 27-29 / 28-31 us
#   20 x 20, M K = 32 400:   189-203 / 177-196 / 181-194 / 173-183 / 167-188 us
#   40 x 40, M K = 129 600:  875-947 / 891-965 / 900-974 / 928-1157 /
#                            1097-1438 us
# 20 000 runs the stripe in blocks of 4: blocks of 8 gain little more there
# and hold about 1 MB more.  Without the buffers, blocks that allocate
# their arrays took 38-40 us in blocks of 3, whose (B, M, K) arrays stay
# below glibc's 128 KiB mmap threshold, and 50-64 us in blocks of 4 to 16,
# whose arrays do not.  20 x 20 and 40 x 40 stay one sample at a time:
# blocks gain under a tenth at 20 x 20, for buffers of 0.8 MB per copy,
# and lose at 40 x 40.  Each 3-sample gradcheck set (M K = 40 and 144) is
# one block.
BLOCK_CELLS = 20_000


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
    return BoundValue(d1=d1, d2=d2)


@dataclass
class Forward:
    """One input vector's pass through the network.  On a lattice of B
    stacked copies the input is B inputs side by side, and so is every
    field: copy c's slice is the pass of input c alone, bitwise.  There
    x_windows and d_win are (B, M, K) and M and D count every copy.

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


def forward(x: np.ndarray, lattice: Lattice, params: NodeParams,
            buffers: BlockBuffers | None = None) -> Forward:
    """Activities, posterior, leaked weights and residuals for one input.

    Without buffers every array is the pass's own.  With buffers, the
    BlockBuffers of this stacked lattice, x_windows, post and d_win are
    written into them (the windows copied straight out of x), so the
    Forward is valid until the next pass given the same buffers."""
    windows, post, residuals, squares = (None,) * 4 if buffers is None else (
        buffers.windows, buffers.post, buffers.residuals, buffers.squares)
    xw = lattice.gather(x, windows)  # on B copies (B, M, K): the (M, K) parameters broadcast
    q = activities(xw, params).reshape(-1)
    post = localized_posterior_entries(q, lattice, out=post)
    p = lattice.nbr.rmatvec(lattice.ones, post)
    rho = lattice.leakage.apply_transpose(p)
    d_win = np.subtract(xw, params.ref_vectors, out=residuals)
    e = np.multiply(d_win, d_win, out=squares).sum(axis=-1).reshape(-1)  # the bits of d_win**2
    dbar = lattice.win.rmatvec(rho, d_win.reshape(-1))
    return Forward(x_windows=xw, q=q, post=post, p=p, rho=rho, d_win=d_win, e=e, dbar=dbar)


def bound_weights(n: float, m: int) -> tuple[float, float]:
    """The weights w1 = 2 / (n M) of the incoherent sum <rho . e> and
    w2 = 2 (n-1) / (n M^2) of the coherent sum <||dbar||^2> in D1 + D2.

    The gradient coefficients are these weights times powers of two, so
    each equals its own formula's rounded value unless a weight underflows.
    Where 2 n M^2 overflows (n near the largest float; 2 (n-1) overflows
    first at M = 1), each weight is divided out one factor at a time, n last
    in w1, so that w1, below the normal range there, is rounded only once.
    """
    if math.isfinite(2.0 * n * m * m):
        return 2.0 / (n * m), 2.0 * (n - 1.0) / (n * m * m)
    return 2.0 / m / n, 2.0 * ((n - 1.0) / n) / m / m


def compute_D1_D2(samples: SampleSet, lattice: Lattice, params: NodeParams, n: float) -> BoundValue:
    """Model objective with the leaked scalable posterior.

    The per-node weight is rho(y) = (L^T p)_y where p_y sums the localized
    posteriors of every window containing y.  Residuals are windowed: only
    components inside node y's input window contribute for node y.

    Samples run in blocks of b = BLOCK_CELLS // (M K), at least one: each
    block is one input to the cached lattice of b copies, and each copy's
    terms are added in sample order, so the result is bitwise the one-sample
    loop's.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m, d = lattice.cfg.num_nodes, lattice.cfg.input_size
    if samples.dim != d:  # here, so that a block does not report B samples as one input
        raise ValueError(f"samples have {samples.dim} cells, the lattice's input has {d}")
    w1, w2 = bound_weights(n, m)
    d1_acc = 0.0
    d2_acc = 0.0
    s = samples.size
    block = max(1, BLOCK_CELLS // (m * lattice.window_len))
    for start in range(0, s, block):
        xs = samples.vectors[start:start + block]  # one input, however many rows
        copies = lattice if len(xs) == 1 else get_lattice(lattice.cfg, len(xs))
        fw = forward(xs, copies, params, copies.buffers)
        # each copy's terms, in sample order; ndarray.dot runs the kernel of @
        # (BLAS ddot, so the same sum) without matmul's dispatch, 0.3 us less
        for c in range(len(xs)):
            dbar = fw.dbar[c * d:(c + 1) * d]
            d1_acc += float(fw.rho[c * m:(c + 1) * m].dot(fw.e[c * m:(c + 1) * m]))
            d2_acc += float(dbar.dot(dbar))
    return BoundValue(d1=w1 * d1_acc / s, d2=w2 * d2_acc / s)


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

    Both firing models run one enumeration, supplying only each sample's
    tuple probabilities, single-firing marginal and coherent term d2, and
    pass one set of input checks: every entry at least -1e-15, every row
    summing to 1, n at most MAX_FIRINGS and M^n at most ENUMERATION_GUARD.

    The enumeration is component-major: the tuple centroids are dim (T,)
    arrays over the T = M^n tuples, and squared distances are summed into
    (T,) arrays one input component at a time, so no (T, dim) temporary is
    built, nor any array larger than T doubles.  Every per-component
    temporary is written into one (T,) scratch array, and the tuple masses
    pr_t are freed once d3 is formed, before the second pass over the
    samples, so memory peaks at about dim + 3 doubles per tuple (9.2 MB at
    20^4 tuples and dim 4, against 11.7 MB with a temporary per component).
    Components are added in order k = 0, 1, ..., which matches numpy's row
    sum of a (T, dim) array for dim < 8; from dim = 8 numpy sums a row
    pairwise, so a (T, dim) rendering may differ in the last bits.
    """
    x = samples.vectors
    s, dim = x.shape
    if joint is not None:
        if n != 2:
            raise ValueError("explicit joint tables are supported for n = 2 only")
        jt = np.asarray(joint, dtype=float)
        if jt.ndim != 3 or jt.shape[0] != s or jt.shape[1] != jt.shape[2]:
            raise ValueError("joint must be (S, M, M)")
        if not np.allclose(jt, np.swapaxes(jt, 1, 2), atol=1e-12):
            raise ValueError("joint must be symmetric in the firing slots")
        # a joint row read row-major already lists the M^2 pair
        # probabilities, in the (a, b) order _tuple_probs gives at n = 2
        name, table, mar1, factors = "joint", jt.reshape(s, -1), jt.sum(axis=2), 1
    elif posterior is None:
        raise ValueError("either posterior or joint is required")
    else:
        name, table, factors = "posterior", _check_posterior(samples, posterior), n
        mar1 = table
    m = mar1.shape[1]
    if np.any(table < -1e-15):
        raise ValueError(f"{name} entries must be nonnegative")
    if not np.allclose(table.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError(f"{name} rows must sum to 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_FIRINGS:
        raise ValueError(f"n = {n} exceeds {MAX_FIRINGS}, the most firings the enumeration "
                         f"guard {ENUMERATION_GUARD} admits at M = 2")
    if m**n > ENUMERATION_GUARD:
        raise ValueError(f"M^n = {m**n} exceeds enumeration guard {ENUMERATION_GUARD}")

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

    t = m**n
    pr_t = np.zeros(t)
    ref_t = [np.zeros(t) for _ in range(dim)]  # numerators, then tuple centroids
    tmp = np.empty(t)  # the one scratch array of every per-component temporary
    for i in range(s):
        probs = _tuple_probs(table[i], factors)
        pr_t += np.divide(probs, s, out=tmp)
        for k in range(dim):
            np.multiply(probs, x[i, k], out=tmp)
            tmp /= s
            ref_t[k] += tmp
        del probs  # before the next row's enumeration allocates its own
    live_t = pr_t > 0.0
    for row in ref_t:
        np.divide(row, pr_t, out=row, where=live_t)
        row[~live_t] = 0.0  # unattached tuples, as for ref_y

    # d3 before the per-sample pass, so that pr_t is freed first: the mean
    # of the n slot centroids of each tuple, one component at a time (slot a
    # is axis a of the (M,)*n tuple grid, row-major as in _tuple_probs)
    centroid_mean = tmp
    mean_grid = centroid_mean.reshape((m,) * n)  # a view
    dist = np.zeros(t)
    for k in range(dim):
        centroid_mean.fill(0.0)
        for a in range(n):
            mean_grid += ref_y[:, k].reshape((m,) + (1,) * (n - 1 - a))
        centroid_mean /= n
        _add_square(dist, np.subtract(ref_t[k], centroid_mean, out=centroid_mean))
    d3 = 2.0 * float(pr_t @ dist)
    del pr_t, live_t

    d_total = 0.0
    d2 = 0.0
    for i in range(s):
        dist.fill(0.0)
        for k in range(dim):
            _add_square(dist, np.subtract(x[i, k], ref_t[k], out=tmp))
        d_total += float(_tuple_probs(table[i], factors) @ dist)
        if joint is None:  # ||x - sum_y p_y x'(y)||^2
            resid = x[i] - table[i] @ ref_y
            d2 += float(resid @ resid)
        else:  # sum_ab J_ab d_a . d_b, with d_y = x - x'(y)
            dmat = x[i][None, :] - ref_y
            d2 += float(np.einsum("ab,ad,bd->", jt[i], dmat, dmat))
    d_total *= 2.0 / s
    d2 *= 2.0 * (n - 1.0) / (n * s)
    return ExactBound(distortion=d_total, d1=d1, d2=d2, d3=d3)


def _add_square(acc: np.ndarray, diff: np.ndarray) -> None:
    """acc += diff**2, squaring diff in place."""
    np.multiply(diff, diff, out=diff)
    acc += diff


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


def solve_stationary_refvectors(samples: SampleSet, posterior: np.ndarray, n: float) -> np.ndarray:
    """Solve the stationarity condition of the fixed-posterior bound for the
    reference vectors:

    n <x|y> = x'(y) + (n-1) sum_y' <Pr(y'|x)|y> x'(y')

    where <.|y> is the conditional empirical average given node y.  Dense
    linear solve; raises StationaritySolveError with the condition number if
    it is not finite or exceeds STATIONARY_COND_LIMIT.
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
    if not np.isfinite(cond) or cond > STATIONARY_COND_LIMIT:
        raise StationaritySolveError(f"stationarity system is ill conditioned: cond = {cond:.3e}")
    return np.linalg.solve(a, n * b)
