"""Lattice geometry: node indexing, windows, neighbourhoods, leakage.

Nodes live on a rectangular 2D array (1D lattices are the degenerate case
m1 = 1).  Every node owns three rectangular top-hat windows:

* a neighbourhood window over the node array, truncated at the edges,
* a leakage window over the node array, truncated and renormalised so each
  row remains a probability distribution,
* an input window over a padded input array, never truncated because the
  input array is padded by (window - 1) cells in total per dimension.

All boundaries are non-periodic.  The config alone fixes this geometry:
LatticeConfig gives the sizes K and D, and _window_csr builds every window.

Every sparse product on the lattice runs on one of five fixed CSR layouts,
built once per Lattice and frozen: the neighbourhood layout N (M x M), the
window layout W (M x D), the leakage L (M x M, with its weights) and the
column layouts of N and W.  A layout applies A v and A^T u in one kernel
call each, to one vector or to every row of a block, with its stored
entries or with entries passed in per call (the posterior P is N with the
entries of one input), with 32-bit indices.  A block shares the entries, so
the sums whose entries change per input (P^T 1 and W^T (rho d)) run on the
column layouts, with the entries as the block's vectors.  The kernels load
without scipy.sparse.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
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
# to about 0.84 GB.  The column layouts, added since, hold a 4-byte position
# per input-window and per neighbourhood cell and one 8-byte weight per
# input-window cell: at most 12 more bytes per cell, about 0.96 GB in all.
# The bench's 40 x 40 geometry has 248 000 cells.
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
        areas = [self.window_len, math.prod(self.neighbourhood_window), math.prod(self.leakage_window)]
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

    @property
    def window_len(self) -> int:
        """K, the cells of one input window."""
        return math.prod(self.input_window)

    @property
    def input_size(self) -> int:
        """D, the cells of the padded input array."""
        return math.prod(self.input_dims)


def _window_csr(node_dims, grid, window, offset) -> tuple[np.ndarray, np.ndarray]:
    """CSR structure (indptr, indices) of one box per node.

    Row y lists the flat indices, in row-major order, of the box of extents
    window whose first cell is y + offset on an array of extents grid,
    clipped to that array: for N and L a box centred on y over the node
    array (offset -(window - 1) / 2), for W the box that starts at y on the
    padded input (offset 0, which never clips).
    """
    # z[a] is (m_a, window_a): the box's coordinates along axis a, per node
    # coordinate; a clipped box is the product of its clipped extents
    z1, z2 = (np.arange(m)[:, None] + np.arange(o, o + w) for m, w, o in zip(node_dims, window, offset))
    in1, in2 = ((z >= 0) & (z < g) for z, g in zip((z1, z2), grid))
    counts = np.outer(in1.sum(axis=1), in2.sum(axis=1)).reshape(-1)
    flat = (z1 * grid[1])[:, None, :, None] + z2[None, :, None, :]
    return np.concatenate([[0], np.cumsum(counts)]), flat[in1[:, None, :, None] & in2[None, :, None, :]]


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
        # 32-bit indices: smaller, and the product runs faster.  Every layout
        # is a Lattice's, whose D <= M K and nnz stay within LATTICE_MAX_CELLS.
        # float64 entries are kept, not copied, so that the column layouts
        # share one array of ones; they are frozen with the rest
        self.shape = shape
        self.indptr = indptr.astype(np.int32)
        self.indices = indices.astype(np.int32)
        self.data = None if data is None else data.astype(float, copy=False)
        _freeze(*(a for a in (self.indptr, self.indices, self.data) if a is not None))

    def _entries(self, data: np.ndarray | None) -> np.ndarray:
        data = self.data if data is None else data
        # the kernels convert their inputs to contiguous float64 but read
        # them without bounds checks
        if data is None or data.shape != self.indices.shape:
            raise ValueError(f"expected {len(self.indices)} entries")
        return data

    def matvec(self, v: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
        """A v, for one vector v (n,) or for each row of a block (B, n)."""
        if v.shape != self.shape[1:]:
            return self._block(_sparsetools.csr_matvecs, *self.shape, v, data)
        out = np.zeros(self.shape[0])
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self._entries(data), v, out)
        return out

    def rmatvec(self, u: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
        """A^T u, for one vector u (m,) or for each row of a block (B, m)."""
        if u.shape != self.shape[:1]:
            return self._block(_sparsetools.csc_matvecs, self.shape[1], self.shape[0], u, data)
        out = np.zeros(self.shape[1])
        _sparsetools.csc_matvec(self.shape[1], self.shape[0], self.indptr, self.indices,
                                self._entries(data), u, out)
        return out

    def _block(self, kernel, n_out: int, n_in: int, v: np.ndarray, data) -> np.ndarray:
        """One multi-vector kernel call for a block v (B, n_in).  The kernels
        read and write (n, B) arrays, and each output adds its terms in the
        one-vector kernel's order, so every row of the result is bitwise the
        product of that row alone."""
        if v.ndim != 2 or v.shape[1] != n_in:
            raise ValueError(f"expected {n_in} values, got shape {v.shape}")
        out = np.zeros((n_out, len(v)))
        kernel(n_out, n_in, len(v), self.indptr, self.indices, self._entries(data), v.T, out)
        return out.T


def _column_layout(layout: CSRLayout, unit: np.ndarray) -> CSRLayout:
    """For each column of layout, the positions of its entries, in the
    increasing order in which rmatvec adds them, with unit weights (a prefix
    of unit, a shared array of ones).  Applied to a row of per-input entries
    t it gives the column sums of A with those entries, bitwise
    layout.rmatvec(1, t), for every row of a block at once."""
    counts = np.bincount(layout.indices, minlength=layout.shape[1])
    nnz = len(layout.indices)
    return CSRLayout((layout.shape[1], nnz), np.concatenate([[0], np.cumsum(counts)]),
                     np.argsort(layout.indices, kind="stable"), unit[:nnz])


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
    window = cfg.leakage_window
    indptr, indices = _window_csr(cfg.node_dims, cfg.node_dims, window, [-(w // 2) for w in window])
    m, counts = cfg.num_nodes, np.diff(indptr)
    return LeakageMatrix((m, m), indptr, indices, np.repeat(1.0 / counts, counts))


class Lattice:
    """Precomputed geometry used by the hot paths.

    Every array it hands out is read-only after construction; the gathers
    index with the writeable arrays behind those views (see __init__), which
    nothing writes to.  The tests cross-check it against per-node reference
    geometry (neighbourhood sets and input-window slices) kept in
    tests/helpers.py.

    Attributes:
        cfg          the LatticeConfig
        num_nodes    M
        window_len, input_size  K and D, read from cfg
        nbr          the neighbourhood layout N, M x M with stored ones: row
                     y' lists N(y') in row-major order, so nbr.matvec(q)
                     holds the window sums and N with the posterior entries
                     as data is P[y', y] = Pr(y|x; y')
        nbr_indices, nbr_rows
                     the column y and the row y' of every entry of N
        win_idx      (M, K) flat indices of each node's input window
        win          the window layout W, M x D: row y lists the cells of
                     y's input window, so win.rmatvec(u, d) adds u_y d_y,
                     over windowed (M, K) entries d, into input space
        leakage      the LeakageMatrix for cfg
        nbr_columns, win_columns
                     the column layouts of N and W (M x nnz and D x M K):
                     nbr_columns.matvec(post) is P^T 1, and
                     win_columns.matvec(u d) is win.rmatvec(u, d), each for
                     one input or every row of a block.  They are built
                     here, with the lattice, so a rebuilt lattice never
                     meets another's layouts.
    """

    def __init__(self, cfg: LatticeConfig):
        self.cfg = cfg
        self.num_nodes = m = cfg.num_nodes
        self.window_len, self.input_size = cfg.window_len, cfg.input_size
        window = cfg.neighbourhood_window
        nbr_indptr, nbr_indices = _window_csr(cfg.node_dims, cfg.node_dims, window,
                                              [-(w // 2) for w in window])
        nbr_rows = np.repeat(np.arange(m), np.diff(nbr_indptr))
        self.nbr = CSRLayout((m, m), nbr_indptr, nbr_indices, np.ones(len(nbr_indices)))

        # a clipped input window would fail the (M, K) reshape
        win_indptr, win_indices = _window_csr(cfg.node_dims, cfg.input_dims, cfg.input_window, (0, 0))
        win_idx = win_indices.reshape(m, self.window_len)
        self.win = CSRLayout((m, self.input_size), win_indptr, win_indices)
        self.leakage = build_leakage(cfg)
        unit = np.ones(max(len(nbr_indices), len(win_indices)))
        self.nbr_columns, self.win_columns = (_column_layout(a, unit) for a in (self.nbr, self.win))
        # np.take copies a read-only index on every call (at 40 x 40 that
        # made a gather 1.5 to 7 times slower than with a writeable index),
        # so the gathers take with these writeable arrays, which nothing
        # writes to, and the attributes are read-only views of them
        self._take = {"win": win_idx, "cols": nbr_indices, "rows": nbr_rows}
        self.win_idx, self.nbr_indices, self.nbr_rows = (a.view() for a in self._take.values())
        _freeze(self.nbr_indices, self.nbr_rows, self.win_idx)

    def coords(self, flat: int) -> NodeIndex:
        m2 = self.cfg.node_dims[1]
        return (int(flat) // m2, int(flat) % m2)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Windowed view of one input vector (D,) or of each row of a block
        (B, D): x restricted to each node's input window, (M, K) or
        (B, M, K).  Every pass over an input starts here, so a NaN or inf in
        x is refused as bad input before it can surface as a non-finite
        activity or gradient."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 2 or x.shape[-1] != self.input_size:
            raise ValueError(f"expected one input of {self.input_size} values (input_dims "
                             f"{self.cfg.input_dims}) or a block (B, {self.input_size}), "
                             f"got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("input vector must be finite")
        # np.take lays a block out C-contiguous.  x[:, win_idx] would make
        # B the fastest axis, and the window sums downstream would then add
        # in another order (the 4 x 4 gradcheck logits and e then differ in
        # their last bits).
        return x.take(self._take["win"], axis=-1)

    def at_columns(self, v: np.ndarray) -> np.ndarray:
        """v[..., nbr_indices]: per-node values v, (M,) or (B, M), read at
        the column of every entry of N."""
        return v.take(self._take["cols"], axis=-1)

    def at_rows(self, v: np.ndarray) -> np.ndarray:
        """v[..., nbr_rows]: per-node values v, (M,) or (B, M), read at the
        row of every entry of N."""
        return v.take(self._take["rows"], axis=-1)

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
