"""Closed-form derivatives of the bound and their verification.

Per input vector, build_state takes the objective's own forward pass
(activities, localized posteriors, leaked weights, windowed residuals and
the coherent residual dbar) and adds the leakage-smoothed per-node
quantities that the derivative formulas need.  gradient_set_from_states
turns each state straight into the three totals the trainer and the
finite-difference check read, and averages them over samples.  Every
function here reads the leakage from the Lattice it is given.  P v, P^T u
and L v are each one kernel call on the lattice's fixed layouts (P is the
neighbourhood layout with the sample's posterior entries), a single pass
over the truncated windows; the quadruple-sum expansions exist only in the
test suite as an independent oracle.

Derivatives (empirical average over samples, windowed), with w1 and w2 the
weights of D1 and D2 (objective.bound_weights):

    dD1/dx'(y) = -2 w1 < f1(x, y) >
    dD2/dx'(y) = -2 w2 < f2(x, y) >
    dD1/d(b, w)(y) = w1 < g1 (1 - Q) (1, x_win) >
    dD2/d(b, w)(y) = 2 w2 < g2 (1 - Q) (1, x_win) >

with f1 = rho_y d_y, f2 = rho_y dbar, g1 = p_y (L e)_y - (P^T P L e)_y and
g2 = (p_y (L d)_y - (P^T P L d)_y) . dbar.  The coherent kernel is linear
in the residuals d, so the dot product with dbar can be taken first:

    g2 = p_y (L h)_y - (P^T P L h)_y,    h_y = d_y . dbar,

which has the form of g1 with e replaced by h.  Every per-sample array is
therefore windowed (M, K) or per node (M,); only dbar spans the input.

Per sample the totals are assembled in one pass, never as separate d1 and
d2 parts: with c1 = w1, c2 = 2 w2 the bias/weight and r1 = -2 w1,
r2 = -2 w2 the ref coefficients,

    bias   = (c1 g1 + c2 g2) (1 - Q)
    weight = bias x_win
    ref    = (r1 rho) d + (r2 rho) dbar_win.

build_state stores g1 and g2 themselves; the tests form f1 and f2 from the
state and check the d1/d2 split against the expanded-sum oracle.  by_kind
pairs each parameter type with its gradient total, in the one order
(bias, weight, ref) that the trainer and the finite-difference check read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activation import NodeParams
from .lattice import Lattice
from .objective import Forward, SampleSet, bound_weights, compute_D1_D2, forward


@dataclass
class ActivationState(Forward):
    """One input's forward pass plus the derivative pieces.

    dbar_win is dbar gathered on each node's input window (M, K).  g1 and
    g2 are the per-node kernels p (L e) - P^T P L e and p (L h) - P^T P L h,
    with h_y = d_y . dbar the residual of node y projected on the coherent
    residual (both (M,), without the sigmoid factor 1 - Q).
    """

    dbar_win: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def _ptp(post: np.ndarray, lattice: Lattice, v: np.ndarray) -> np.ndarray:
    """P^T P v for P given by its entries in the neighbourhood layout."""
    return lattice.nbr.rmatvec(lattice.nbr.matvec(v, post), post)


def build_state(x: np.ndarray, lattice: Lattice, params: NodeParams) -> ActivationState:
    """Evaluate and cache everything the derivative formulas need for one
    input vector."""
    fw = forward(x, lattice, params)
    dbar_win = lattice.windows(fw.dbar)  # unchecked: a non-finite dbar fails as a gradient
    h = np.einsum("ij,ij->i", fw.d_win, dbar_win)
    le = lattice.leakage.apply(fw.e)
    lh = lattice.leakage.apply(h)
    return ActivationState(
        **vars(fw), dbar_win=dbar_win,
        g1=fw.p * le - _ptp(fw.post, lattice, le), g2=fw.p * lh - _ptp(fw.post, lattice, lh),
    )


@dataclass
class GradientSet:
    """The derivative of D1 + D2 with respect to each parameter type.

    Ref-vector and weight gradients are stored in windowed (M, K) layout;
    components outside a node's input window do not exist in this layout
    and are identically zero in the full-dimensional picture.
    """

    bias_total: np.ndarray
    weight_total: np.ndarray
    ref_total: np.ndarray


def gradient_set_from_states(states, lattice: Lattice, n: float) -> GradientSet:
    """Average the per-sample bias, weight and ref totals over the states."""
    w1, w2 = bound_weights(n, lattice.num_nodes)
    c1, c2, r1, r2 = w1, 2.0 * w2, -2.0 * w1, -2.0 * w2
    totals = None
    count = 0
    for state in states:
        bias = (c1 * state.g1 + c2 * state.g2) * (1.0 - state.q)
        ref = (r1 * state.rho)[:, None] * state.d_win
        ref += (r2 * state.rho)[:, None] * state.dbar_win
        terms = (bias, bias[:, None] * state.x_windows, ref)
        if totals is None:
            # the first sample's terms start the sums (0 + x is exact)
            totals = terms
        else:
            for total, term in zip(totals, terms):
                total += term
        count += 1
    if totals is None:
        raise ValueError("gradients need at least one sample")
    if count > 1:  # x / 1 is exact, and skipping it saves a pass per total
        for total in totals:
            total /= count
    return GradientSet(*totals)


def by_kind(params: NodeParams, grads: GradientSet):
    """(kind, values, gradient total) of each parameter type, ordered bias,
    weight, ref."""
    return (("bias", params.biases, grads.bias_total),
            ("weight", params.weights, grads.weight_total),
            ("ref", params.ref_vectors, grads.ref_total))


def all_gradients(samples: SampleSet, lattice: Lattice, params: NodeParams, n: float) -> GradientSet:
    states = (build_state(x, lattice, params) for x in samples.vectors)
    return gradient_set_from_states(states, lattice, n)


FD_TOL = 1e-5
FD_STEP = 1e-5  # the central-difference step h
# Rounding in one objective evaluation is about eps * |D|, so a central
# difference with step h is uncertain by about eps * |D| / h however small
# the derivative.  Over seeds 0-299 of the two gradcheck geometries (1x8 and
# 4x4) the largest |analytic - numeric| on correct gradients was 1.32 times
# that estimate; the margin of 4 leaves three times headroom over it, while
# the --corrupt control was still caught on every one of those seeds.
FD_NOISE_MARGIN = 4.0


@dataclass(frozen=True)
class FDEntry:
    kind: str
    node: int
    component: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class FDReport:
    entries: list[FDEntry] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.rel_error for e in self.entries), default=0.0)

    def passed(self) -> bool:
        return self.max_rel_error <= FD_TOL

    def format_text(self) -> str:
        lines = ["kind node comp analytic numeric rel_error"]
        for e in sorted(self.entries, key=lambda e: -e.rel_error):
            lines.append(
                f"{e.kind} {e.node} {e.component} {e.analytic:.12e} {e.numeric:.12e} {e.rel_error:.3e}"
            )
        lines.append(f"max_rel_error {self.max_rel_error:.3e} over {len(self.entries)} components")
        return "\n".join(lines)


def _rel_error(a: float, b: float, noise: float) -> float:
    """|a - b| relative to the larger of |a| and |b|, but never to less
    than the finite-difference noise scale over FD_TOL, so that an error at
    that scale reads as at most FD_TOL.  The 1e-8 floor only guards 0 / 0."""
    return abs(a - b) / max(1e-8, FD_NOISE_MARGIN * noise / FD_TOL, abs(a), abs(b))


def finite_difference_check(
    samples: SampleSet,
    lattice: Lattice,
    params: NodeParams,
    n: float,
    corrupt_first_component: bool = False,
) -> FDReport:
    """Compare every analytic derivative component against central finite
    differences of the objective.

    corrupt_first_component is a sensitivity self-test: it perturbs one
    analytic ref-vector component so the check must fail.
    """
    gs = all_gradients(samples, lattice, params, n)
    if corrupt_first_component:
        gs.ref_total.flat[0] = gs.ref_total.flat[0] * 1.1 + 1e-3

    report = FDReport()
    for kind, arr, analytic in by_kind(params, gs):
        flat = arr.reshape(-1)
        width = arr.shape[1] if arr.ndim == 2 else 1
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            f_plus = compute_D1_D2(samples, lattice, params, n).total
            flat[idx] = orig - FD_STEP
            f_minus = compute_D1_D2(samples, lattice, params, n).total
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            noise = np.finfo(float).eps * max(abs(f_plus), abs(f_minus)) / FD_STEP
            a = float(analytic.flat[idx])
            report.entries.append(
                FDEntry(
                    kind=kind,
                    node=idx // width,
                    component=idx % width,
                    analytic=a,
                    numeric=numeric,
                    rel_error=_rel_error(a, numeric, noise),
                )
            )
    return report
