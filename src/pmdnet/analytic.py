"""Closed-form solutions on the two-ring product input space.

Input vectors live on the product of two unit circles, each discretised
into M positions, with nodes arranged on a matching ring.  Three candidate
stationary configurations exist: every node follows a single circle
(SINGLE, label "type1"), every node follows both (JOINT, "type2"), or the
nodes split half and half (SPLIT, "type3").  Their objective values have
closed forms in the squared radius of gyration of a circular arc, so the
optimal configuration as a function of (M, n) is exactly computable.
optimal_type and value_table share one winner rule, so a table row reads
its winner off the three values it exports instead of evaluating them
again; phase_diagram reads the winners off value_table's rows, so a grid
point is evaluated once, and returns only the crossing points between
consecutive M values whose winner differs.

All values here omit a shared additive constant; only differences matter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


class SolutionType(enum.Enum):
    # labels are the conventional short names used in CSV/CLI output
    SINGLE = "type1"   # every node attached to one subspace
    JOINT = "type2"    # every node attached to both subspaces
    SPLIT = "type3"    # half the nodes on each subspace

    @property
    def label(self) -> str:
        return self.value


ALL_TYPES = (SolutionType.SINGLE, SolutionType.JOINT, SolutionType.SPLIT)
# values within this of the minimum tie with it (exact analytic ties exist)
TIE_TOL = 1e-9


class OptimalType(NamedTuple):
    best: SolutionType
    ties: tuple[SolutionType, ...]


def radius_gyration(m: float) -> float:
    """Squared radius of gyration of M points evenly spread on an arc of
    the unit circle: ((M/2pi) sin(2pi/M))^2.  Increasing in M, -> 1."""
    if math.isinf(m):
        return 1.0
    if m < 1.0:
        raise ValueError(f"need M >= 1, got {m}")
    return ((m / TWO_PI) * math.sin(TWO_PI / m)) ** 2


def _split_factor(n: float) -> float:
    # 4n/(n+1), limit 4 as n -> infinity
    if math.isinf(n):
        return 4.0
    return 4.0 * n / (n + 1.0)


def n_label(n: float) -> str:
    """n as CSV names, boundary rows and summary lines print it: 'inf' or %g."""
    return "inf" if math.isinf(n) else f"{n:g}"


def check_n(n: float) -> None:
    if not (n >= 1.0):
        raise ValueError(f"need n >= 1 (or inf), got {n}")


def solution_value(stype: SolutionType, m: float, n: float) -> float:
    """Objective value (constant omitted) of one candidate configuration."""
    check_n(n)
    if stype is SolutionType.SINGLE:
        return -2.0 * radius_gyration(m)
    if stype is SolutionType.JOINT:
        return -4.0 * radius_gyration(math.sqrt(m))
    if stype is SolutionType.SPLIT:
        if m < 2.0:
            raise ValueError(f"split configuration needs M >= 2, got {m}")
        return -_split_factor(n) * radius_gyration(m / 2.0)
    raise TypeError(f"unknown solution type {stype!r}")


def _winner(values: list[float]) -> OptimalType:
    """The optimum among the values of ALL_TYPES, in that order.

    `best` has the strictly lowest value (enum order breaks exact float
    ties); `ties` lists every type within TIE_TOL of the minimum, so exact
    analytic ties are reported rather than hidden.
    """
    vmin = min(values)
    ties = tuple(t for t, v in zip(ALL_TYPES, values) if v <= vmin + TIE_TOL)
    return OptimalType(best=_best(values), ties=ties)


def _best(values) -> SolutionType:
    """The type with the lowest of the values of ALL_TYPES, first in enum
    order on an exact float tie."""
    return ALL_TYPES[values.index(min(values))]


def optimal_type(m: float, n: float) -> OptimalType:
    """Configuration(s) with the lowest value at (M, n)."""
    if m < 2.0:
        raise ValueError(f"need M >= 2, got {m}")
    return _winner([solution_value(t, m, n) for t in ALL_TYPES])


def stationary_scale(stype: SolutionType, n: float, attached_subspace: int = 1) -> tuple[float, float]:
    """Per-subspace factors multiplying the conditional input centroid in
    the stationary reference vectors.

    A detached subspace gets exactly 0; a node serving both gets (1, 1); a
    node serving one subspace of a split population amplifies it by
    2n/(n+1) (limit 2).
    """
    check_n(n)
    if attached_subspace not in (1, 2):
        raise ValueError(f"attached_subspace must be 1 or 2, got {attached_subspace}")
    if stype is SolutionType.JOINT:
        return (1.0, 1.0)
    if stype is SolutionType.SINGLE:
        scale = 1.0
    elif stype is SolutionType.SPLIT:
        scale = 2.0 if math.isinf(n) else 2.0 * n / (n + 1.0)
    else:
        raise TypeError(f"unknown solution type {stype!r}")
    return (scale, 0.0) if attached_subspace == 1 else (0.0, scale)


@dataclass(frozen=True)
class PhaseBoundary:
    n: float
    m: float           # crossing point, located to 1e-6
    lower: SolutionType  # optimal just below m
    upper: SolutionType  # optimal just above m


def _bisect_crossing(a: SolutionType, b: SolutionType, n: float, lo: float, hi: float, tol: float = 1e-6) -> float:
    """M where value(a) - value(b) changes sign inside (lo, hi)."""

    def diff(m):
        return solution_value(a, m, n) - solution_value(b, m, n)

    flo = diff(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = diff(mid)
        if (flo <= 0.0) == (fmid <= 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phase_diagram(tables) -> tuple[PhaseBoundary, ...]:
    """For each n, the crossing points between consecutive M grid values
    whose optimal type differs.

    `tables` is a sequence of (n, value_table(m_values, n)) pairs, in
    output order; the winners are read off the rows' values, so no grid
    point is evaluated again.
    """
    if not tables or not all(rows for _, rows in tables):
        raise ValueError("need nonempty M and n ranges")
    boundaries = []
    for n, rows in tables:
        n = float(n)
        best = [_best(row[1:4]) for row in rows]
        for j, (a, b) in enumerate(zip(best, best[1:])):
            if a is not b:
                m_cross = _bisect_crossing(a, b, n, rows[j][0], rows[j + 1][0])
                boundaries.append(PhaseBoundary(n=n, m=m_cross, lower=a, upper=b))
    return tuple(boundaries)


def value_table(m_values, n: float):
    """Rows (M, value_single, value_joint, value_split, winner_label) for
    CSV export; ties joined with '|'.  M < 2 raises from solution_value."""
    rows = []
    for m in m_values:
        m = float(m)
        vals = [solution_value(t, m, n) for t in ALL_TYPES]
        opt = _winner(vals)
        label = "|".join(t.label for t in opt.ties) if len(opt.ties) > 1 else opt.best.label
        rows.append((m, *vals, label))
    return rows


def integer_scan(n: float):
    """(M, ties) for integer M in [4, 100].

    Textual summaries scan from M = 4 upward: below that the closed forms
    involve sub-2-point arcs (sqrt(M) < 2 or M/2 < 2) that no longer
    describe realisable ring configurations, and M = 2 produces a spurious
    JOINT optimum there.
    """
    return [(m, optimal_type(float(m), n).ties) for m in range(4, 101)]


def _ranges(ms: list[int]) -> list[tuple[int, int]]:
    runs = []
    for m in ms:
        if runs and m == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], m)
        else:
            runs.append((m, m))
    return runs


def describe_crossovers(n: float) -> str:
    """One-line summary of which type is optimal over integer M in [4, 100]."""
    scan = integer_scan(n)
    parts = []
    for t in ALL_TYPES:
        ms = [m for m, ties in scan if t in ties]
        if not ms:
            parts.append(f"{t.label} never")
            continue
        spans = ", ".join(f"M={a}..{b}" if a != b else f"M={a}" for a, b in _ranges(ms))
        parts.append(f"{t.label} {spans}")
    return f"n={n_label(n)}: " + "; ".join(parts)
