"""Lattice geometry: node indexing, windows, neighbourhoods, leakage.

Nodes live on a rectangular 2D array (1D lattices are the degenerate case
m1 = 1).  Every node owns three rectangular top-hat windows:

* a neighbourhood window over the node array, truncated at the edges,
* a leakage window over the node array, truncated and renormalised so each
  row remains a probability distribution,
* an input window over a padded input array, never truncated because the
  input array is padded by (window - 1) cells in total per dimension.

All boundaries are non-periodic.

Every fixed sparse map on the lattice is a SumOperator, laid out once per
Lattice: the neighbourhood window sums, the row and column sums of the
partitioned posterior, the window-cell sums into input space, and the
leakage L and its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import _sparsetools  # private: the kernel behind scipy's own CSR products

from .schema import check_field_types

NodeIndex = tuple[int, int]


@dataclass(frozen=True)
class LatticeConfig:
    """Geometry of the node array and its windows.

    node_dims            (m1, m2) size of the node array
    input_window         (i1, i2) odd extents of the per-node input window
    neighbourhood_window (w1, w2) odd extents of the posterior window
    leakage_window       (l1, l2) odd extents of the leakage window

    The padded input array has extents node_dims + input_window - 1, so
    every node's input window fits without truncation.
    """

    node_dims: tuple[int, int]
    input_window: tuple[int, int]
    neighbourhood_window: tuple[int, int]
    leakage_window: tuple[int, int]

    def __post_init__(self):
        check_field_types(self)
        for name in ("node_dims", "input_window", "neighbourhood_window", "leakage_window"):
            pair = tuple(int(v) for v in getattr(self, name))  # a JSON list in a checkpoint
            object.__setattr__(self, name, pair)
            if name != "node_dims" and any(v < 1 or v % 2 == 0 for v in pair):
                raise ValueError(f"{name} extents must be odd positive integers, got {pair}")
        if any(v < 1 for v in self.node_dims):
            raise ValueError(f"node_dims must be positive, got {self.node_dims}")

    @property
    def input_dims(self) -> tuple[int, int]:
        return (
            self.node_dims[0] + self.input_window[0] - 1,
            self.node_dims[1] + self.input_window[1] - 1,
        )

    @property
    def num_nodes(self) -> int:
        return self.node_dims[0] * self.node_dims[1]


def _check_node(cfg: LatticeConfig, y) -> NodeIndex:
    y1, y2 = int(y[0]), int(y[1])
    m1, m2 = cfg.node_dims
    if not (0 <= y1 < m1 and 0 <= y2 < m2):
        raise IndexError(f"node {(y1, y2)} outside lattice {cfg.node_dims}")
    return y1, y2


def _clipped_range(centre: int, half: int, size: int) -> range:
    return range(max(0, centre - half), min(size - 1, centre + half) + 1)


def neighbourhood(cfg: LatticeConfig, y: NodeIndex) -> set[NodeIndex]:
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


def input_window(cfg: LatticeConfig, y: NodeIndex) -> tuple[slice, slice]:
    """Index ranges of node y's input window in the padded input array.

    The window extent is always exactly input_window; padding guarantees it
    never clips.  Returned as half-open slices.
    """
    y1, y2 = _check_node(cfg, y)
    i1, i2 = cfg.input_window
    return slice(y1, y1 + i1), slice(y2, y2 + i2)


def _window_csr(node_dims, window) -> tuple[np.ndarray, np.ndarray]:
    """CSR structure (indptr, indices) of truncated top-hat windows.

    Row y lists the flat indices of the window centred on node y, clipped to
    the lattice, in row-major order.
    """
    m1, m2 = node_dims
    h1, h2 = (window[0] - 1) // 2, (window[1] - 1) // 2
    y1 = np.repeat(np.arange(m1), m2)
    y2 = np.tile(np.arange(m2), m1)
    off1 = np.arange(-h1, h1 + 1)
    off2 = np.arange(-h2, h2 + 1)
    z1 = y1[:, None, None] + off1[None, :, None]
    z2 = y2[:, None, None] + off2[None, None, :]
    valid = (z1 >= 0) & (z1 < m1) & (z2 >= 0) & (z2 < m2)
    flat = z1 * m2 + z2
    counts = valid.reshape(m1 * m2, -1).sum(axis=1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = flat[valid]
    return indptr.astype(np.int64), indices.astype(np.int64)


class SumOperator:
    """A fixed sparse map laid out once: S(v)[t] is the sum of
    weights[j] * v[columns[j]] over every entry j with targets[j] == t.

    By default columns[j] = j and weights[j] = 1, so S adds one value per
    entry into the entry's target; columns come with width, the length of
    v.  S is
    the CSR matrix (shape, indptr, indices, data) whose rows list their
    entries in stable order of target.  A CSR product adds a row's terms in
    stored order starting from 0, so the default S(w) is bit-identical to
    np.bincount(targets, w, size), which adds in the same order, but reads
    a prebuilt layout where bincount scatters by index on every call.  S(v)
    calls scipy's CSR kernel directly, because the operator dispatch of a
    scipy matrix @ v costs about 4 us a call, more than the sum itself on
    small lattices.
    """

    def __init__(self, targets: np.ndarray, size: int, columns: np.ndarray | None = None,
                 weights: np.ndarray | None = None, width: int | None = None):
        order = np.argsort(targets, kind="stable")
        width = len(targets) if columns is None else width
        # 32-bit indices when they fit: smaller, and the product runs faster
        index = np.int32 if max(len(targets), width) <= np.iinfo(np.int32).max else np.int64
        self.shape = (size, width)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(targets, minlength=size))]).astype(index)
        self.indices = (order if columns is None else columns[order]).astype(index)
        self.data = np.ones(len(targets)) if weights is None else weights[order]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        # the kernel converts v to contiguous float64 but reads it without
        # bounds checks
        if v.shape != self.shape[1:]:
            raise ValueError(f"expected {self.shape[1]} values, got shape {v.shape}")
        out = np.zeros(self.shape[0])
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self.data, v, out)
        return out


@dataclass(frozen=True)
class LeakageMatrix:
    """Row-stochastic leakage L[y, y'] = Pr(y' | y).

    Rows are uniform over the truncated leakage window around y and
    renormalised to sum to 1.  L and L^T are two SumOperators over the same
    entries (y, y'), with target and column swapped.  L^T lists each row's
    entries in increasing y', the order in which the CSC product L.T @ v
    adds them too.
    """

    op: SumOperator            # L
    transpose_op: SumOperator  # L^T

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(L v)_y = sum_y' L[y, y'] v[y']."""
        return self.op(v)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """(L^T v)_y = sum_y' L[y', y] v[y']."""
        return self.transpose_op(v)


def build_leakage(cfg: LatticeConfig) -> LeakageMatrix:
    """Uniform top-hat leakage rows, truncated at edges and renormalised."""
    indptr, indices = _window_csr(cfg.node_dims, cfg.leakage_window)
    m, counts = cfg.num_nodes, np.diff(indptr)
    rows = np.repeat(np.arange(m), counts)
    data = np.repeat(1.0 / counts, counts)
    return LeakageMatrix(op=SumOperator(rows, m, columns=indices, weights=data, width=m),
                         transpose_op=SumOperator(indices, m, columns=rows, weights=data, width=m))


class Lattice:
    """Precomputed geometry used by the hot paths.

    Everything here is immutable after construction and derived from the
    functional definitions above; tests cross-check both routes.

    Attributes:
        cfg          the LatticeConfig
        num_nodes    M
        nbr_indices, nbr_rows
                     the column y and the row y' of every entry of the
                     neighbourhood layout: row y' lists N(y') in row-major
                     order
        nbr_sum      SumOperator of the window sums over that layout,
                     nbr_sum(v)[y'] = sum over N(y') of v; its (indptr,
                     indices) is the layout in CSR form
        win_idx      (M, K) flat indices of each node's input window,
                     K = i1 * i2
        nbr_row_sum, nbr_col_sum
                     SumOperator adding a value per neighbourhood entry
                     into its row y' or its column y (P v, P^T u, p)
        win_cell_sum SumOperator adding a value per window cell (the
                     flattened (M, K) layout) into its input cell
        leakage      the LeakageMatrix for cfg, L and L^T as SumOperators
    """

    def __init__(self, cfg: LatticeConfig):
        self.cfg = cfg
        self.num_nodes = m = cfg.num_nodes
        m1, m2 = cfg.node_dims
        nbr_indptr, self.nbr_indices = _window_csr(cfg.node_dims, cfg.neighbourhood_window)
        self.nbr_rows = np.repeat(np.arange(m), np.diff(nbr_indptr))
        self.nbr_sum = SumOperator(self.nbr_rows, m, columns=self.nbr_indices, width=m)

        i1, i2 = cfg.input_window
        d1, d2 = cfg.input_dims
        y1 = np.repeat(np.arange(m1), m2)
        y2 = np.tile(np.arange(m2), m1)
        u1 = y1[:, None, None] + np.arange(i1)[None, :, None]
        u2 = y2[:, None, None] + np.arange(i2)[None, None, :]
        self.win_idx = (u1 * d2 + u2).reshape(m, i1 * i2)
        assert self.win_idx.min() >= 0 and self.win_idx.max() < d1 * d2

        self.nbr_row_sum = SumOperator(self.nbr_rows, m)
        self.nbr_col_sum = SumOperator(self.nbr_indices, m)
        self.win_cell_sum = SumOperator(self.win_idx.reshape(-1), d1 * d2)
        self.leakage = build_leakage(cfg)

    @property
    def window_len(self) -> int:
        return self.win_idx.shape[1]

    @property
    def input_size(self) -> int:
        d1, d2 = self.cfg.input_dims
        return d1 * d2

    def flat(self, y: NodeIndex) -> int:
        y1, y2 = _check_node(self.cfg, y)
        return y1 * self.cfg.node_dims[1] + y2

    def coords(self, flat: int) -> NodeIndex:
        m2 = self.cfg.node_dims[1]
        return (int(flat) // m2, int(flat) % m2)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Windowed view of one input vector: (M, K) array of x restricted
        to each node's input window."""
        flat = np.asarray(x, dtype=float).reshape(-1)
        if flat.shape[0] != self.input_size:
            raise ValueError(
                f"input length {flat.shape[0]} does not match input_dims {self.cfg.input_dims}"
            )
        return flat[self.win_idx]

    def scatter_rows(self, rows: np.ndarray) -> np.ndarray:
        """Embed per-node windowed rows (M, K) into full input space (M, D),
        zero off-window."""
        rows = np.asarray(rows, dtype=float)
        out = np.zeros((self.num_nodes, self.input_size))
        out[np.arange(self.num_nodes)[:, None], self.win_idx] = rows
        return out


@lru_cache(maxsize=32)
def get_lattice(cfg: LatticeConfig) -> Lattice:
    """Cached Lattice for a config; configs are frozen so this is safe."""
    return Lattice(cfg)
