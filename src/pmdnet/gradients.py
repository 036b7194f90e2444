"""Closed-form derivatives of the bound and their verification.

Per input vector, build_state takes the objective's own forward pass
(activities, localized posteriors, leaked weights, windowed residuals and
the coherent residual dbar) and adds the leakage-smoothed per-node
quantities that the derivative formulas need.  kernels() turns one state
into the per-node kernels; gradient_set_from_states averages them over
samples and applies the coefficients.  All neighbourhood sums run over the
truncated sets from the lattice module with a single dummy index; the
quadruple-sum expansions exist only in the test suite as an independent
oracle.

Derivatives (empirical average over samples, windowed):

    dD1/dx'(y) = -(4 / (n M))        < f1(x, y) >
    dD2/dx'(y) = -(4 (n-1) / (n M^2)) < f2(x, y) >
    dD1/d(b, w)(y) = (2 / (n M))       < g1 (1 - Q) (1, x_win) >
    dD2/d(b, w)(y) = (4 (n-1) / (n M^2)) < g2 (1 - Q) (1, x_win) >

with f1 = rho_y d_y, f2 = rho_y dbar, g1 = p_y (L e)_y - (P^T P L e)_y and
g2 = (p_y (L d)_y - (P^T P L d)_y) . dbar.  The coherent kernel is linear
in the residuals d, so the dot product with dbar can be taken first:

    g2 = p_y (L h)_y - (P^T P L h)_y,    h_y = d_y . dbar,

which has the form of g1 with e replaced by h.  Every per-sample array is
therefore windowed (M, K) or per node (M,); only dbar spans the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activation import NodeParams
from .lattice import Lattice, LeakageMatrix
from .objective import Forward, SampleSet, compute_D1_D2, forward


@dataclass
class ActivationState(Forward):
    """One input's forward pass plus the derivative pieces, all per node.

    le and lh are the leakage-smoothed distortions L e and L h, with
    h_y = d_y . dbar the residual of node y projected on the coherent
    residual; ptple and ptplh apply P^T P to them.
    """

    lattice: Lattice
    le: np.ndarray
    lh: np.ndarray
    ptple: np.ndarray
    ptplh: np.ndarray


def _ptp(post: np.ndarray, lattice: Lattice, v: np.ndarray) -> np.ndarray:
    """P^T P v for P given by its entries in the neighbourhood layout.

    Each bincount adds in the order of the matching scipy CSR (P v) or
    CSC (P^T u) product."""
    rows, cols, m = lattice.nbr_rows, lattice.nbr_indices, lattice.num_nodes
    pv = np.bincount(rows, weights=post * v[cols], minlength=m)
    return np.bincount(cols, weights=post * pv[rows], minlength=m)


def build_state(x: np.ndarray, lattice: Lattice, params: NodeParams, leakage: LeakageMatrix) -> ActivationState:
    """Evaluate and cache everything the derivative formulas need for one
    input vector."""
    fw = forward(x, lattice, params, leakage)
    h = np.einsum("ij,ij->i", fw.d_win, fw.dbar[lattice.win_idx])
    le = leakage.apply(fw.e)
    lh = leakage.apply(h)
    return ActivationState(
        **vars(fw), lattice=lattice, le=le, lh=lh,
        ptple=_ptp(fw.post, lattice, le), ptplh=_ptp(fw.post, lattice, lh),
    )


@dataclass
class GradientSet:
    """All derivative components, split into the d1 and d2 contributions.

    Ref-vector and weight gradients are stored in windowed (M, K) layout;
    components outside a node's input window do not exist in this layout
    and are identically zero in the full-dimensional picture.
    """

    ref_d1: np.ndarray
    ref_d2: np.ndarray
    weight_d1: np.ndarray
    weight_d2: np.ndarray
    bias_d1: np.ndarray
    bias_d2: np.ndarray

    @property
    def ref_total(self) -> np.ndarray:
        return self.ref_d1 + self.ref_d2

    @property
    def weight_total(self) -> np.ndarray:
        return self.weight_d1 + self.weight_d2

    @property
    def bias_total(self) -> np.ndarray:
        return self.bias_d1 + self.bias_d2

    def all_finite(self) -> bool:
        return all(
            np.all(np.isfinite(a))
            for a in (self.ref_d1, self.ref_d2, self.weight_d1,
                      self.weight_d2, self.bias_d1, self.bias_d2)
        )


def kernels(state: ActivationState):
    """Per-sample kernels before coefficients: f1 and f2 windowed (M, K),
    g1 and g2 per node (M,) without the sigmoid factor (1 - Q)."""
    f1 = state.rho[:, None] * state.d_win
    f2 = state.rho[:, None] * state.dbar[state.lattice.win_idx]
    g1 = state.p * state.le - state.ptple
    g2 = state.p * state.lh - state.ptplh
    return f1, f2, g1, g2


def gradient_set_from_states(states, lattice: Lattice, n: float) -> GradientSet:
    """Average the per-sample kernels and apply the derivative coefficients."""
    acc = None
    count = 0
    for state in states:
        f1, f2, g1, g2 = kernels(state)
        sig = 1.0 - state.q
        g1v = g1 * sig
        g2v = g2 * sig
        terms = (f1, f2, g1v, g2v, g1v[:, None] * state.x_windows, g2v[:, None] * state.x_windows)
        if acc is None:
            # the first sample's terms start the sums (0 + x is exact)
            acc = terms
        else:
            for total, term in zip(acc, terms):
                total += term
        count += 1
    if acc is None:
        raise ValueError("gradients need at least one sample")
    acc_f1, acc_f2, acc_g1b, acc_g2b, acc_g1w, acc_g2w = acc
    m = lattice.num_nodes
    c_ref1 = -4.0 / (n * m) / count
    c_ref2 = -4.0 * (n - 1.0) / (n * m * m) / count
    c_prob1 = 2.0 / (n * m) / count
    c_prob2 = 4.0 * (n - 1.0) / (n * m * m) / count
    return GradientSet(
        ref_d1=c_ref1 * acc_f1,
        ref_d2=c_ref2 * acc_f2,
        weight_d1=c_prob1 * acc_g1w,
        weight_d2=c_prob2 * acc_g2w,
        bias_d1=c_prob1 * acc_g1b,
        bias_d2=c_prob2 * acc_g2b,
    )


def _states(samples: SampleSet, lattice: Lattice, params: NodeParams, leakage: LeakageMatrix):
    for x in samples.vectors:
        yield build_state(x, lattice, params, leakage)


def all_gradients(
    samples: SampleSet, lattice: Lattice, params: NodeParams, leakage: LeakageMatrix, n: float
) -> GradientSet:
    return gradient_set_from_states(_states(samples, lattice, params, leakage), lattice, n)


FD_TOL = 1e-5
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
    step: float = 1e-5

    @property
    def max_rel_error(self) -> float:
        return max((e.rel_error for e in self.entries), default=0.0)

    @property
    def worst(self) -> FDEntry | None:
        return max(self.entries, key=lambda e: e.rel_error, default=None)

    def passed(self, tol: float = FD_TOL) -> bool:
        return self.max_rel_error <= tol

    def format_text(self, limit: int | None = None) -> str:
        lines = ["kind node comp analytic numeric rel_error"]
        entries = sorted(self.entries, key=lambda e: -e.rel_error)
        if limit is not None:
            entries = entries[:limit]
        for e in entries:
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
    leakage: LeakageMatrix,
    n: float,
    step: float = 1e-5,
    corrupt_first_component: bool = False,
) -> FDReport:
    """Compare every analytic derivative component against central finite
    differences of the objective.

    corrupt_first_component is a sensitivity self-test: it perturbs one
    analytic ref-vector component so the check must fail.
    """
    gs = all_gradients(samples, lattice, params, leakage, n)
    analytic = {
        "bias": gs.bias_total.copy(),
        "weight": gs.weight_total.copy(),
        "ref": gs.ref_total.copy(),
    }
    if corrupt_first_component:
        analytic["ref"].flat[0] = analytic["ref"].flat[0] * 1.1 + 1e-3

    arrays = {"bias": params.biases, "weight": params.weights, "ref": params.ref_vectors}
    report = FDReport(step=step)
    for kind, arr in arrays.items():
        flat = arr.reshape(-1)
        width = arr.shape[1] if arr.ndim == 2 else 1
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = compute_D1_D2(samples, lattice, params, leakage, n).total
            flat[idx] = orig - step
            f_minus = compute_D1_D2(samples, lattice, params, leakage, n).total
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            noise = np.finfo(float).eps * max(abs(f_plus), abs(f_minus)) / step
            a = float(analytic[kind].reshape(-1)[idx])
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
