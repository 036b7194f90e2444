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

Every sparse product on the lattice runs on one of three fixed CSR layouts,
built once per Lattice and frozen: the neighbourhood layout N (M x M), the
window layout W (M x D) and the leakage L (M x M, with its weights).  A
layout applies A v and A^T u to one vector in one kernel call each, with its
stored entries or with entries passed in per call (the posterior P is N with
the entries of one input), with 32-bit indices.  Its kernels load without
scipy.sparse.

No window crosses between inputs, so B inputs are one input to a lattice of
B stacked copies: Lattice(cfg, copies) tiles every layout and index array
block-diagonally, and get_lattice caches it with the one-copy lattice.  A
stacked lattice also carries one set of BlockBuffers, which a forward pass
given them overwrites, so such a block allocates no (B, M, K) array.
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
from numpy.lib.stride_tricks import sliding_window_view

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
        # compute_D1_D2 stacks B copies only where B M K <= BLOCK_CELLS, so a
        # stacked W stays within BLOCK_CELLS too, and a stacked N or L, whose
        # rows hold at most M entries, within BLOCK_CELLS M <= BLOCK_CELLS^2
        # (4e8 at 20 000) < 2^31
        self.shape = shape
        self.indptr = indptr.astype(np.int32)
        self.indices = indices.astype(np.int32)
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

    def tile(self, copies: int) -> CSRLayout:
        """The block-diagonal matrix of `copies` copies of A: copy c's rows
        list A's entries in A's order, with the columns shifted by c n.  Each
        output of a product adds its terms in the order of A's own product,
        so copy c's slice of a product is bitwise A's product of that slice.
        One copy is A itself."""
        if copies == 1:
            return self
        (m, n), nnz = self.shape, len(self.indices)
        shift = np.arange(copies)[:, None]
        indptr = np.append((self.indptr[:-1] + nnz * shift).reshape(-1), copies * nnz)
        data = None if self.data is None else np.tile(self.data, copies)
        return type(self)((copies * m, copies * n), indptr, (self.indices + n * shift).reshape(-1), data)


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


class BlockBuffers:
    """The arrays a forward pass on a lattice of B stacked copies writes
    into when given them, made once with the lattice and overwritten by
    every such pass.

    inputs         (B, *input_dims) the block's inputs, each on the padded
                   input array
    input_windows  the read-only (B, m1, m2, i1, i2) window view of inputs,
                   made once: [c, a, b] is the input window of node (a, b)
                   in copy c, in row-major order like win_idx
    windows, residuals, squares
                   (B, M, K) the gathered windows, the residuals and their
                   squares
    post           (nnz,) the posterior entries in the neighbourhood layout

    get_lattice shares one lattice per process, so two passes given its
    buffers at once, from two threads (two compute_D1_D2 calls on one
    configuration), would overwrite each other's arrays.
    """

    def __init__(self, cfg: LatticeConfig, copies: int, nnz: int):
        self.inputs = np.empty((copies, *cfg.input_dims))
        self.input_windows = sliding_window_view(self.inputs, cfg.input_window, axis=(1, 2))
        self.windows, self.residuals, self.squares = (
            np.empty((copies, cfg.num_nodes, cfg.window_len)) for _ in range(3))
        self.post = np.empty(nnz)
        # inputs flat and windows shaped like input_windows, each a view made
        # once: a reshape or np.copyto per call costs more than a small copy
        self._flat_inputs = self.inputs.reshape(-1)
        self._window_cells = self.windows.reshape(self.input_windows.shape)

    def gather(self, flat: np.ndarray) -> np.ndarray:
        """Copy the B inputs, side by side in flat, into inputs and their
        windows into windows, which is returned."""
        self._flat_inputs[...] = flat
        self._window_cells[...] = self.input_windows
        return self.windows


class Lattice:
    """Precomputed geometry used by the hot paths, for one input or, with
    copies = B, for B inputs side by side: B disjoint copies of the lattice,
    whose nodes, input cells and layout entries are copy-major.

    Every geometry array is read-only after construction.  The tests
    cross-check it against per-node reference geometry (neighbourhood sets
    and input-window slices) kept in tests/helpers.py.

    Attributes:
        cfg          the LatticeConfig of one copy
        copies       B, the copies side by side (1 unless stacked)
        num_nodes    M, over all copies (B cfg.num_nodes)
        window_len   K, read from cfg
        input_size   D, over all copies (B cfg.input_size)
        nbr          the neighbourhood layout N, M x M with stored ones: row
                     y' lists N(y') in row-major order, so nbr.matvec(q)
                     holds the window sums and N with the posterior entries
                     as data is P[y', y] = Pr(y|x; y')
        nbr_indices, nbr_rows
                     the column y and the row y' of every entry of N
        ones         (M,) ones, so nbr.rmatvec(ones, post) is P^T 1
        win_idx      (M, K) flat indices of each node's input window; on B
                     copies (B, M, K), one (M, K) block per copy, so that
                     one copy's (M, K) parameters broadcast over them
        win          the window layout W, M x D: row y lists the cells of
                     y's input window, so win.rmatvec(u, d) adds u_y d_y,
                     over windowed (M, K) entries d, into input space
        leakage      the LeakageMatrix, L for cfg tiled over the copies
        buffers      the BlockBuffers of a stacked lattice, which a pass
                     uses only when given them; None on one copy
    """

    def __init__(self, cfg: LatticeConfig, copies: int = 1):
        self.cfg, self.copies = cfg, copies
        m, d = cfg.num_nodes, cfg.input_size
        self.num_nodes, self.window_len, self.input_size = copies * m, cfg.window_len, copies * d
        window = cfg.neighbourhood_window
        nbr_indptr, nbr_indices = _window_csr(cfg.node_dims, cfg.node_dims, window,
                                              [-(w // 2) for w in window])
        win_indptr, win_indices = _window_csr(cfg.node_dims, cfg.input_dims, cfg.input_window, (0, 0))
        self.nbr, self.win, self.leakage = (a.tile(copies) for a in (
            CSRLayout((m, m), nbr_indptr, nbr_indices, np.ones(len(nbr_indices))),
            CSRLayout((m, d), win_indptr, win_indices), build_leakage(cfg)))
        # 64-bit copies of the tiled indices: numpy indexes with 32-bit ones
        # about three times slower (a clipped input window would fail the
        # (M, K) reshape)
        self.nbr_indices = self.nbr.indices.astype(np.intp)
        self.nbr_rows = np.repeat(np.arange(self.num_nodes), np.diff(self.nbr.indptr))
        blocks = (m, self.window_len) if copies == 1 else (copies, m, self.window_len)
        self.win_idx = self.win.indices.astype(np.intp).reshape(blocks)
        self.ones = np.ones(self.num_nodes)
        _freeze(self.nbr_indices, self.nbr_rows, self.win_idx, self.ones)
        self.buffers = None if copies == 1 else BlockBuffers(cfg, copies, len(self.nbr_indices))

    def coords(self, flat: int) -> NodeIndex:
        """The node of flat index `flat`, within its own copy."""
        m2 = self.cfg.node_dims[1]
        flat = int(flat) % self.cfg.num_nodes
        return (flat // m2, flat % m2)

    def gather(self, x: np.ndarray, buffers: BlockBuffers | None = None) -> np.ndarray:
        """Windowed view of one input vector: (M, K) array of x restricted
        to each node's input window, shaped like win_idx (on B copies
        (B, M, K)).  Every pass over an input starts here,
        so a NaN or inf in x is refused as bad input before it can surface
        as a non-finite activity or gradient.

        With buffers, this stacked lattice's BlockBuffers, x is copied into
        buffers.inputs and the windows out of its window view into
        buffers.windows, which is returned: valid until the next gather
        into them."""
        flat = np.asarray(x, dtype=float).reshape(-1)
        if flat.shape[0] != self.input_size:
            raise ValueError(f"input length {flat.shape[0]} does not match the lattice's "
                             f"{self.input_size} input cells (input_dims {self.cfg.input_dims})")
        if not np.isfinite(flat).all():
            raise ValueError("input vector must be finite")
        return flat[self.win_idx] if buffers is None else buffers.gather(flat)

    def scatter_rows(self, rows: np.ndarray) -> np.ndarray:
        """Embed per-node windowed rows (M, K) into full input space (M, D),
        zero off-window."""
        rows = np.asarray(rows, dtype=float)
        out = np.zeros((self.num_nodes, self.input_size))
        out[np.arange(self.num_nodes)[:, None], self.win_idx] = rows
        return out


@lru_cache(maxsize=32)
def _cached_lattice(cfg: LatticeConfig, copies: int) -> Lattice:
    return Lattice(cfg, copies)


def get_lattice(cfg: LatticeConfig, copies: int = 1) -> Lattice:
    """The one cached Lattice for a config and a number of copies, shared by
    every caller; the config is frozen and so are the Lattice's arrays.
    get_lattice(cfg) and get_lattice(cfg, 1) are the one object, and
    cache_clear drops every lattice, stacked ones included."""
    return _cached_lattice(cfg, copies)


get_lattice.cache_clear = _cached_lattice.cache_clear
