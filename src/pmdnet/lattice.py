"""Lattice geometry: node indexing, windows, neighbourhoods, leakage.

Nodes live on a rectangular 2D array (1D lattices are the degenerate case
m1 = 1).  Every node owns three rectangular top-hat windows:

* a neighbourhood window over the node array, truncated at the edges,
* a leakage window over the node array, truncated and renormalised so each
  row remains a probability distribution,
* an input window over a padded input array, never truncated because the
  input array is padded by (window - 1) cells in total per dimension.

All boundaries are non-periodic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
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


def inverse_neighbourhood(cfg: LatticeConfig, y: NodeIndex) -> set[NodeIndex]:
    """The set of nodes whose neighbourhood contains y.

    Computed by a direct scan of every node's neighbourhood.  Equality with
    neighbourhood(cfg, y) is a property of symmetric truncated top-hats, not
    an assumption made here.
    """
    y1, y2 = _check_node(cfg, y)
    m1, m2 = cfg.node_dims
    out = set()
    for z1 in range(m1):
        for z2 in range(m2):
            if (y1, y2) in neighbourhood(cfg, (z1, z2)):
                out.add((z1, z2))
    return out


def input_window(cfg: LatticeConfig, y: NodeIndex) -> tuple[slice, slice]:
    """Index ranges of node y's input window in the padded input array.

    The window extent is always exactly input_window; padding guarantees it
    never clips.  Returned as half-open slices.
    """
    y1, y2 = _check_node(cfg, y)
    i1, i2 = cfg.input_window
    return slice(y1, y1 + i1), slice(y2, y2 + i2)


@dataclass(frozen=True)
class LeakageMatrix:
    """Row-stochastic leakage: matrix[y, y'] = Pr(y' | y).

    Rows are uniform over the truncated leakage window around y and
    renormalised to sum to 1.  Stored sparsely (CSR) over the window, with
    the transpose kept as its own CSR so that L^T is not rebuilt per call.
    """

    matrix: sparse.csr_array
    window: tuple[int, int]
    transpose: sparse.csr_array

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(L v)_y = sum_y' L[y, y'] v[y'] for vectors or (M, d) stacks."""
        return self.matrix @ v

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """(L^T v)_y = sum_y' L[y', y] v[y']."""
        return self.transpose @ v

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


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


def build_leakage(cfg: LatticeConfig) -> LeakageMatrix:
    """Uniform top-hat leakage rows, truncated at edges and renormalised."""
    indptr, indices = _window_csr(cfg.node_dims, cfg.leakage_window)
    counts = np.diff(indptr)
    data = np.repeat(1.0 / counts, counts)
    m = sparse.csr_array((data, indices, indptr), shape=(cfg.num_nodes, cfg.num_nodes))
    # CSR of L^T sums each output over y' in increasing order, as the CSC
    # product m.T @ v does, so apply_transpose gives the same bits
    return LeakageMatrix(matrix=m, window=cfg.leakage_window, transpose=m.T.tocsr())


class SumOperator:
    """Adds per-source values into targets: S(w)[t] is the sum of w[j] over
    every j with targets[j] == t.

    S is a 0/1 CSR matrix (shape, indptr, indices, data) whose rows list
    their sources in increasing j.  A CSR product adds a row's terms in
    stored order starting from 0, so S(w) is bit-identical to
    np.bincount(targets, w, size), which adds in the same order.  The
    product reads a layout built once, where bincount scatters by index on
    every call and takes two to three times as long on large lattices.
    S(w) calls scipy's CSR kernel directly, because the operator dispatch
    of a scipy matrix @ w costs about 4 us a call, more than the sum itself
    on small lattices.
    """

    def __init__(self, targets: np.ndarray, size: int):
        # 32-bit indices when they fit: smaller, and the product runs faster
        index = np.int32 if len(targets) <= np.iinfo(np.int32).max else np.int64
        self.shape = (size, len(targets))
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(targets, minlength=size))]).astype(index)
        self.indices = np.argsort(targets, kind="stable").astype(index)
        self.data = np.ones(len(targets))

    def __call__(self, w: np.ndarray) -> np.ndarray:
        # the kernel converts w to contiguous float64 but reads it without
        # bounds checks
        if w.shape != self.shape[1:]:
            raise ValueError(f"expected {self.shape[1]} values, got shape {w.shape}")
        out = np.zeros(self.shape[0])
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self.data, w, out)
        return out


class Lattice:
    """Precomputed geometry used by the hot paths.

    Everything here is immutable after construction and derived from the
    functional definitions above; tests cross-check both routes.

    Attributes:
        cfg          the LatticeConfig
        num_nodes    M
        nbr_indptr, nbr_indices
                     CSR layout of neighbourhood rows (row y' = N(y'))
        nbr_rows     the row y' of every entry of that layout
        nbr_matrix   0/1 CSR over that layout (window sums are nbr_matrix @ v)
        win_idx      (M, K) flat indices of each node's input window,
                     K = i1 * i2
        nbr_row_sum, nbr_col_sum
                     SumOperator adding a value per neighbourhood entry
                     into its row y' or its column y (P v, P^T u, p)
        win_cell_sum SumOperator adding a value per window cell (the
                     flattened (M, K) layout) into its input cell
        leakage      the LeakageMatrix for cfg
    """

    def __init__(self, cfg: LatticeConfig):
        self.cfg = cfg
        self.num_nodes = cfg.num_nodes
        m1, m2 = cfg.node_dims
        self.nbr_indptr, self.nbr_indices = _window_csr(cfg.node_dims, cfg.neighbourhood_window)
        self.nbr_rows = np.repeat(np.arange(self.num_nodes), np.diff(self.nbr_indptr))
        ones = np.ones(len(self.nbr_indices))
        self.nbr_matrix = sparse.csr_array(
            (ones, self.nbr_indices, self.nbr_indptr), shape=(self.num_nodes, self.num_nodes)
        )

        i1, i2 = cfg.input_window
        d1, d2 = cfg.input_dims
        y1 = np.repeat(np.arange(m1), m2)
        y2 = np.tile(np.arange(m2), m1)
        u1 = y1[:, None, None] + np.arange(i1)[None, :, None]
        u2 = y2[:, None, None] + np.arange(i2)[None, None, :]
        self.win_idx = (u1 * d2 + u2).reshape(self.num_nodes, i1 * i2)
        assert self.win_idx.min() >= 0 and self.win_idx.max() < d1 * d2

        self.nbr_row_sum = SumOperator(self.nbr_rows, self.num_nodes)
        self.nbr_col_sum = SumOperator(self.nbr_indices, self.num_nodes)
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

    def nbr_row(self, y_flat: int) -> np.ndarray:
        return self.nbr_indices[self.nbr_indptr[y_flat]:self.nbr_indptr[y_flat + 1]]

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
