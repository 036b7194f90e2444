"""Lattice geometry: node indexing, windows, neighbourhoods, leakage.

Nodes live on a rectangular 2D array (1D lattices are the degenerate case
m1 = 1).  Every node owns three rectangular top-hat windows:

* a neighbourhood window over the node array, truncated at the edges,
* a leakage window over the node array, truncated and renormalised so each
  row remains a probability distribution,
* an input window over a padded input array, never truncated because the
  input array is padded by (window - 1) cells in total per dimension.

All boundaries are non-periodic.

Every sparse product on the lattice runs on one of three fixed CSR layouts,
built once per Lattice and frozen: the neighbourhood layout N (M x M), the
window layout W (M x D) and the leakage L (M x M, with its weights).  A
layout applies A v and A^T u in one kernel call each, with its stored
entries or with entries passed in per call (the posterior P is N with the
entries of one input).  Its kernels are loaded without the scipy.sparse package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy

from .schema import check_field_types


def _load_sparsetools(directory: str):
    """scipy's private sparse-kernel extension, loaded from its file in directory
    without the scipy.sparse package (about 0.2 s of imports).  Registered under
    its own name, and reused from there, so scipy.sparse shares the one module."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_sparsetools" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy {scipy.__version__} has no _sparsetools extension in {directory}; "
                          f"pmdnet needs scipy>=1.10,<1.18")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools(os.path.join(os.path.dirname(scipy.__file__), "sparse"))

NodeIndex = tuple[int, int]

# Bound on a lattice's windowed size M * (K + N + L): M nodes times the
# areas of the input, neighbourhood and leakage windows.  A 200 x 200
# training run measured at most 84 bytes per cell (input-window cells; 48
# per neighbourhood cell, 19 per leakage cell), so the bound holds a lattice
# to about 0.84 GB.  The bench's 40 x 40 geometry has 248 000 cells.
LATTICE_MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class LatticeConfig:
    """Geometry of the node array and its windows.

    node_dims            (m1, m2) size of the node array
    input_window         (i1, i2) odd extents of the per-node input window
    neighbourhood_window (w1, w2) odd extents of the posterior window
    leakage_window       (l1, l2) odd extents of the leakage window

    The padded input array has extents node_dims + input_window - 1, so
    every node's input window fits without truncation.  The windowed size
    M * (K + N + L), the nodes times the three window areas, may not exceed
    LATTICE_MAX_CELLS.
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
        m = self.num_nodes
        areas = [a * b for a, b in (self.input_window, self.neighbourhood_window, self.leakage_window)]
        if m * sum(areas) > LATTICE_MAX_CELLS:  # refused before anything is allocated
            raise ValueError(f"lattice windowed size M * (K + N + L) = {m:,} * "
                             f"({' + '.join(map(str, areas))}) = {m * sum(areas):,} cells "
                             f"exceeds the {LATTICE_MAX_CELLS:,} bound")

    @property
    def input_dims(self) -> tuple[int, int]:
        return (
            self.node_dims[0] + self.input_window[0] - 1,
            self.node_dims[1] + self.input_window[1] - 1,
        )

    @property
    def num_nodes(self) -> int:
        return self.node_dims[0] * self.node_dims[1]


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


def _freeze(*arrays: np.ndarray) -> None:
    """Make shared geometry read-only: a Lattice is cached and handed to
    every caller, and the kernels index with these arrays unchecked."""
    for arr in arrays:
        arr.flags.writeable = False


class CSRLayout:
    """A fixed sparse matrix A laid out once as CSR (shape, indptr,
    indices[, data]).

    matvec(v) is A v and rmatvec(u) is A^T u, each one call of the kernel
    behind scipy's own products, with A's entries taken from data when it is
    passed and from the stored data otherwise.  rmatvec runs the CSC kernel
    on the same three arrays, since they are A^T in CSC form: it adds each
    output's terms in increasing entry order starting from 0, the order of
    np.bincount over the column indices and of scipy's A.T @ u.  The kernels
    are called directly, because the operator dispatch of a scipy matrix
    costs about 4 us a call, more than the sum itself on small lattices.
    """

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray | None = None):
        # 32-bit indices when they fit: smaller, and the product runs faster
        index = np.int32 if max(shape[1], len(indices)) <= np.iinfo(np.int32).max else np.int64
        self.shape = shape
        self.indptr = indptr.astype(index)
        self.indices = indices.astype(index)
        self.data = None if data is None else data.astype(float)
        _freeze(*(a for a in (self.indptr, self.indices, self.data) if a is not None))

    def _entries(self, data: np.ndarray | None) -> np.ndarray:
        data = self.data if data is None else data
        # the kernels convert their inputs to contiguous float64 but read
        # them without bounds checks
        if data is None or data.shape != self.indices.shape:
            raise ValueError(f"expected {len(self.indices)} entries")
        return data

    def matvec(self, v: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
        """A v."""
        if v.shape != self.shape[1:]:
            raise ValueError(f"expected {self.shape[1]} values, got shape {v.shape}")
        out = np.zeros(self.shape[0])
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self._entries(data), v, out)
        return out

    def rmatvec(self, u: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
        """A^T u."""
        if u.shape != self.shape[:1]:
            raise ValueError(f"expected {self.shape[0]} values, got shape {u.shape}")
        out = np.zeros(self.shape[1])
        _sparsetools.csc_matvec(self.shape[1], self.shape[0], self.indptr, self.indices,
                                self._entries(data), u, out)
        return out


class LeakageMatrix(CSRLayout):
    """Row-stochastic leakage L[y, y'] = Pr(y' | y), with its weights stored.

    Rows are uniform over the truncated leakage window around y and
    renormalised to sum to 1.
    """

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(L v)_y = sum_y' L[y, y'] v[y']."""
        return self.matvec(v)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """(L^T v)_y = sum_y' L[y', y] v[y']."""
        return self.rmatvec(v)


def build_leakage(cfg: LatticeConfig) -> LeakageMatrix:
    """Uniform top-hat leakage rows, truncated at edges and renormalised."""
    indptr, indices = _window_csr(cfg.node_dims, cfg.leakage_window)
    m, counts = cfg.num_nodes, np.diff(indptr)
    return LeakageMatrix((m, m), indptr, indices, np.repeat(1.0 / counts, counts))


class Lattice:
    """Precomputed geometry used by the hot paths.

    Every array is read-only after construction.  The tests cross-check it
    against per-node reference geometry (neighbourhood sets and input-window
    slices) kept in tests/helpers.py.

    Attributes:
        cfg          the LatticeConfig
        num_nodes    M
        nbr          the neighbourhood layout N, M x M with stored ones: row
                     y' lists N(y') in row-major order, so nbr.matvec(q)
                     holds the window sums and N with the posterior entries
                     as data is P[y', y] = Pr(y|x; y')
        nbr_indices, nbr_rows
                     the column y and the row y' of every entry of N
        ones         (M,) ones, so nbr.rmatvec(ones, post) is P^T 1
        win_idx      (M, K) flat indices of each node's input window,
                     K = i1 * i2
        win          the window layout W, M x D: row y lists the cells of
                     y's input window, so win.rmatvec(u, d) adds u_y d_y,
                     over windowed (M, K) entries d, into input space
        leakage      the LeakageMatrix for cfg
    """

    def __init__(self, cfg: LatticeConfig):
        self.cfg = cfg
        self.num_nodes = m = cfg.num_nodes
        m1, m2 = cfg.node_dims
        nbr_indptr, self.nbr_indices = _window_csr(cfg.node_dims, cfg.neighbourhood_window)
        self.nbr_rows = np.repeat(np.arange(m), np.diff(nbr_indptr))
        self.nbr = CSRLayout((m, m), nbr_indptr, self.nbr_indices, np.ones(len(self.nbr_indices)))
        self.ones = np.ones(m)

        i1, i2 = cfg.input_window
        d1, d2 = cfg.input_dims
        y1 = np.repeat(np.arange(m1), m2)
        y2 = np.tile(np.arange(m2), m1)
        u1 = y1[:, None, None] + np.arange(i1)[None, :, None]
        u2 = y2[:, None, None] + np.arange(i2)[None, None, :]
        self.win_idx = (u1 * d2 + u2).reshape(m, i1 * i2)
        assert self.win_idx.min() >= 0 and self.win_idx.max() < d1 * d2
        k = self.win_idx.shape[1]
        self.win = CSRLayout((m, d1 * d2), np.arange(0, m * k + 1, k), self.win_idx.reshape(-1))
        self.leakage = build_leakage(cfg)
        _freeze(self.nbr_indices, self.nbr_rows, self.ones, self.win_idx)

    @property
    def window_len(self) -> int:
        return self.win_idx.shape[1]

    @property
    def input_size(self) -> int:
        d1, d2 = self.cfg.input_dims
        return d1 * d2

    def coords(self, flat: int) -> NodeIndex:
        m2 = self.cfg.node_dims[1]
        return (int(flat) // m2, int(flat) % m2)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Windowed view of one input vector: (M, K) array of x restricted
        to each node's input window.  Every pass over an input starts here,
        so a NaN or inf in x is refused as bad input before it can surface
        as a non-finite activity or gradient."""
        flat = np.asarray(x, dtype=float).reshape(-1)
        if flat.shape[0] != self.input_size:
            raise ValueError(
                f"input length {flat.shape[0]} does not match input_dims {self.cfg.input_dims}"
            )
        if not np.isfinite(flat).all():
            raise ValueError("input vector must be finite")
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
    """The one cached Lattice for a config, shared by every caller; the
    config is frozen and so are the Lattice's arrays."""
    return Lattice(cfg)
