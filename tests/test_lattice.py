"""Geometry: windows, neighbourhoods, leakage."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy import sparse

from pmdnet import lattice
from pmdnet.lattice import (
    LATTICE_MAX_CELLS,
    Lattice,
    LatticeConfig,
    build_leakage,
    get_lattice,
)

from helpers import dense_operator, flat, input_window, inverse_neighbourhood, nbr_row, neighbourhood
from oracle_expanded import leakage_dense, nbr, node_list

STRIPE_1D = LatticeConfig(
    node_dims=(1, 100),
    input_window=(1, 41),
    neighbourhood_window=(1, 21),
    leakage_window=(1, 15),
)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(node_dims=(0, 5), input_window=(1, 1),
                      neighbourhood_window=(1, 1), leakage_window=(1, 1))
    with pytest.raises(ValueError):
        LatticeConfig(node_dims=(1, 5), input_window=(1, 2),
                      neighbourhood_window=(1, 1), leakage_window=(1, 1))
    with pytest.raises(ValueError):
        LatticeConfig(node_dims=(1, 5), input_window=(1, 1),
                      neighbourhood_window=(1, -3), leakage_window=(1, 1))


def test_windowed_size_bound():
    # STRIPE_1D is admitted above, and so are the 20x20 and 40x40 geometries
    LatticeConfig(node_dims=(20, 20), input_window=(9, 9),
                  neighbourhood_window=(5, 5), leakage_window=(3, 3))
    LatticeConfig(node_dims=(40, 40), input_window=(9, 9),
                  neighbourhood_window=(7, 7), leakage_window=(5, 5))
    # 5 cells a node: 2 000 000 nodes reach the bound, one more passes it
    windows = dict(input_window=(1, 1), neighbourhood_window=(1, 1), leakage_window=(1, 3))
    assert 2_000_000 * 5 == LATTICE_MAX_CELLS
    LatticeConfig(node_dims=(1, 2_000_000), **windows)
    with pytest.raises(ValueError, match=r"^lattice windowed size M \* \(K \+ N \+ L\) = "
                                         r"2,000,001 \* \(1 \+ 1 \+ 3\) = 10,000,005 cells "
                                         r"exceeds the 10,000,000 bound$"):
        LatticeConfig(node_dims=(1, 2_000_001), **windows)


def test_input_dims_derived():
    assert STRIPE_1D.input_dims == (1, 140)
    assert STRIPE_1D.num_nodes == 100
    cfg = LatticeConfig(node_dims=(6, 8), input_window=(5, 3),
                        neighbourhood_window=(3, 3), leakage_window=(1, 1))
    assert cfg.input_dims == (10, 10)


def test_neighbourhood_interior_full_window():
    got = neighbourhood(STRIPE_1D, (0, 50))
    assert got == {(0, c) for c in range(40, 61)}
    assert len(got) == 21


def test_neighbourhood_truncated_at_edge():
    got = neighbourhood(STRIPE_1D, (0, 0))
    assert got == {(0, c) for c in range(0, 11)}
    assert len(got) == 11


def test_neighbourhood_window_covers_lattice():
    cfg = LatticeConfig(node_dims=(1, 5), input_window=(1, 1),
                        neighbourhood_window=(1, 5), leakage_window=(1, 1))
    assert neighbourhood(cfg, (0, 2)) == {(0, c) for c in range(5)}


def test_neighbourhood_contains_self_and_bounded():
    cfg = LatticeConfig(node_dims=(4, 7), input_window=(1, 1),
                        neighbourhood_window=(3, 5), leakage_window=(1, 1))
    for i in range(4):
        for j in range(7):
            got = neighbourhood(cfg, (i, j))
            assert (i, j) in got
            assert len(got) <= 15


def test_inverse_neighbourhood_interior_equals_forward():
    y = (0, 50)
    assert inverse_neighbourhood(STRIPE_1D, y) == neighbourhood(STRIPE_1D, y)


def test_inverse_neighbourhood_edge_by_scan():
    # independent brute-force scan over all nodes' windows
    y = (0, 0)
    expect = set()
    for j in range(100):
        if y in neighbourhood(STRIPE_1D, (0, j)):
            expect.add((0, j))
    got = inverse_neighbourhood(STRIPE_1D, y)
    assert got == expect
    assert got == {(0, c) for c in range(11)}


def test_exchange_identity_arbitrary_summand():
    cfg = LatticeConfig(node_dims=(3, 6), input_window=(1, 1),
                        neighbourhood_window=(3, 5), leakage_window=(1, 1))
    rng = np.random.default_rng(11)
    nodes = [(i, j) for i in range(3) for j in range(6)]
    v = {(a, b): rng.normal() for a in nodes for b in nodes}
    lhs = sum(v[(y, yp)] for y in nodes for yp in inverse_neighbourhood(cfg, y))
    rhs = sum(v[(y, yp)] for yp in nodes for y in neighbourhood(cfg, yp))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_leakage_identity_window():
    cfg = LatticeConfig(node_dims=(1, 9), input_window=(1, 1),
                        neighbourhood_window=(1, 3), leakage_window=(1, 1))
    dense = dense_operator(build_leakage(cfg))
    assert np.array_equal(dense, np.eye(9))


def test_leakage_interior_uniform():
    lk = build_leakage(STRIPE_1D)
    row = dense_operator(lk)[50]
    nz = np.nonzero(row)[0]
    assert list(nz) == list(range(43, 58))
    assert np.allclose(row[nz], 1.0 / 15.0, rtol=0, atol=1e-15)


def test_leakage_edge_renormalized():
    lk = build_leakage(STRIPE_1D)
    row = dense_operator(lk)[0]
    nz = np.nonzero(row)[0]
    assert list(nz) == list(range(0, 8))
    assert np.allclose(row[nz], 1.0 / 8.0, rtol=0, atol=1e-15)


def test_leakage_rows_sum_to_one_many_configs():
    configs = [
        STRIPE_1D,
        LatticeConfig((5, 5), (1, 1), (3, 3), (5, 5)),
        LatticeConfig((2, 9), (3, 3), (1, 5), (3, 7)),
        LatticeConfig((7, 1), (3, 1), (5, 1), (7, 1)),
    ]
    for cfg in configs:
        dense = dense_operator(build_leakage(cfg))
        assert np.all(dense >= 0)
        assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= 1e-12


def test_input_window_positions():
    s1, s2 = input_window(STRIPE_1D, (0, 0))
    assert (s2.start, s2.stop) == (0, 41)
    s1, s2 = input_window(STRIPE_1D, (0, 99))
    assert (s2.start, s2.stop) == (99, 140)
    cfg = LatticeConfig((1, 5), (1, 1), (1, 3), (1, 1))
    s1, s2 = input_window(cfg, (0, 3))
    assert (s1.start, s1.stop, s2.start, s2.stop) == (0, 1, 3, 4)


def test_input_window_never_clips():
    cfg = LatticeConfig((4, 6), (3, 5), (3, 3), (1, 1))
    for i in range(4):
        for j in range(6):
            s1, s2 = input_window(cfg, (i, j))
            assert s2.stop - s2.start == 5 and s1.stop - s1.start == 3
            assert 0 <= s1.start and s1.stop <= cfg.input_dims[0]
            assert 0 <= s2.start and s2.stop <= cfg.input_dims[1]


def test_lattice_gather_scatter_roundtrip():
    cfg = LatticeConfig((2, 4), (3, 3), (1, 3), (1, 1))
    lat = get_lattice(cfg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=lat.input_size)
    wins = lat.gather(x)
    assert wins.shape == (8, 9)
    for k, (i, j) in enumerate((a, b) for a in range(2) for b in range(4)):
        s1, s2 = input_window(cfg, (i, j))
        expect = x.reshape(cfg.input_dims)[s1, s2].ravel()
        assert np.array_equal(wins[k], expect)
    # scatter places rows back on their windows, zero elsewhere
    rows = rng.normal(size=(8, 9))
    full = lat.scatter_rows(rows)
    for k in range(8):
        assert np.array_equal(full[k][lat.win_idx[k]], rows[k])
        mask = np.ones(lat.input_size, dtype=bool)
        mask[lat.win_idx[k]] = False
        assert np.all(full[k][mask] == 0)


def test_lattice_neighbour_rows_match_sets():
    cfg = LatticeConfig((3, 5), (1, 1), (3, 3), (3, 3))
    lat = get_lattice(cfg)
    for i in range(3):
        for j in range(5):
            k = flat(lat, (i, j))
            got = {lat.coords(f) for f in nbr_row(lat, k)}
            assert got == neighbourhood(cfg, (i, j))


def test_get_lattice_caches():
    assert get_lattice(STRIPE_1D) is get_lattice(STRIPE_1D)
    assert isinstance(get_lattice(STRIPE_1D), Lattice)


def _odd(draw, upper):
    return 2 * draw(st_.integers(0, upper)) + 1


@st_.composite
def truncated_geometries(draw):
    """A small lattice whose windows are often cut at the edges, and a seed."""
    cfg = LatticeConfig(
        node_dims=(draw(st_.integers(1, 4)), draw(st_.integers(1, 6))),
        input_window=(_odd(draw, 1), _odd(draw, 2)),
        neighbourhood_window=(_odd(draw, 2), _odd(draw, 3)),
        leakage_window=(_odd(draw, 2), _odd(draw, 2)),
    )
    return cfg, draw(st_.integers(0, 2**32 - 1))


def _wide(rng, shape):
    # magnitudes over 26 decades, so any other order of addition would
    # change the rounded sums
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-13, 13, shape)


def assert_layouts_equal_scipy_bitwise(lat, rng):
    """matvec is scipy's CSR product A @ v and rmatvec its CSC product
    A.T @ u, bit for bit, with the stored entries and with entries passed
    per call.  The layouts call scipy's private kernels; a scipy release
    that changes them must fail here rather than change results."""
    for layout in (lat.nbr, lat.win, lat.leakage):
        v, u = _wide(rng, layout.shape[1]), _wide(rng, layout.shape[0])
        passed = _wide(rng, len(layout.indices))
        cases = [(passed, passed)] + ([] if layout.data is None else [(None, layout.data)])
        for data, entries in cases:
            a = sparse.csr_array((entries, layout.indices, layout.indptr), shape=layout.shape)
            assert layout.matvec(v, data).tobytes() == (a @ v).tobytes()
            assert layout.rmatvec(u, data).tobytes() == (a.T @ u).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(truncated_geometries())
def test_sum_operators_equal_bincount_bitwise(instance):
    cfg, seed = instance
    lat = Lattice(cfg)
    rng = np.random.default_rng(seed)
    assert_layouts_equal_scipy_bitwise(lat, rng)
    # the kernel calls equal the gathers and bincounts they replaced: P v,
    # P^T u and P^T 1 for posterior entries post, and the coherent residual
    # W^T rho with windowed residuals d
    m, nbr_cols, nbr_rows = lat.num_nodes, lat.nbr_indices, lat.nbr_rows
    post, v, u = _wide(rng, len(nbr_cols)), _wide(rng, m), _wide(rng, m)
    assert lat.nbr.matvec(v, post).tobytes() == np.bincount(nbr_rows, post * v[nbr_cols], m).tobytes()
    assert lat.nbr.rmatvec(u, post).tobytes() == np.bincount(nbr_cols, post * u[nbr_rows], m).tobytes()
    assert lat.nbr.rmatvec(lat.ones, post).tobytes() == np.bincount(nbr_cols, post, m).tobytes()
    rho, d = _wide(rng, m), _wide(rng, lat.win_idx.shape)
    dbar = np.bincount(lat.win_idx.ravel(), weights=(rho[:, None] * d).ravel(), minlength=lat.input_size)
    assert lat.win.rmatvec(rho, d.reshape(-1)).tobytes() == dbar.tobytes()


@pytest.mark.parametrize("cfg", [
    STRIPE_1D,
    LatticeConfig(node_dims=(40, 40), input_window=(9, 9),
                  neighbourhood_window=(7, 7), leakage_window=(5, 5)),
    LatticeConfig(node_dims=(1, 8), input_window=(1, 5),
                  neighbourhood_window=(1, 3), leakage_window=(1, 3)),
    # windows that differ by axis, so a swapped row and column fails
    LatticeConfig(node_dims=(6, 7), input_window=(3, 3),
                  neighbourhood_window=(3, 5), leakage_window=(5, 3)),
], ids=["stripe", "40x40", "1x8", "6x7"])
def test_sum_operators_equal_scipy_product_bitwise(cfg):
    lat = get_lattice(cfg)
    rng = np.random.default_rng(0)
    assert_layouts_equal_scipy_bitwise(lat, rng)

    # the window sums, the input windows, L and L^T against scipy matrices
    # built here from the definitions, L^T as the CSC product L.T @ v
    flat = {y: k for k, y in enumerate(node_list(cfg))}
    windows = np.zeros((lat.num_nodes, lat.num_nodes))
    for yp in node_list(cfg):
        for y in nbr(cfg, yp):
            windows[flat[yp], flat[y]] = 1.0
    cells = np.zeros((lat.num_nodes, lat.input_size))
    for y in node_list(cfg):
        mask = np.zeros(cfg.input_dims)
        mask[input_window(cfg, y)] = 1.0
        cells[flat[y]] = mask.ravel()
    leak = sparse.csr_array(leakage_dense(cfg))
    v = _wide(rng, lat.num_nodes)
    assert lat.nbr.matvec(v).tobytes() == (sparse.csr_array(windows) @ v).tobytes()
    assert np.array_equal(dense_operator(lat.win, np.ones(len(lat.win.indices))), cells)
    assert lat.leakage.apply(v).tobytes() == (leak @ v).tobytes()
    assert lat.leakage.apply_transpose(v).tobytes() == (leak.T @ v).tobytes()


def test_shared_geometry_is_read_only():
    # every caller gets the one cached Lattice, so a write to any of its
    # arrays would change every later run in the process
    lat = get_lattice(STRIPE_1D)
    assert lat is get_lattice(STRIPE_1D)
    arrays = [lat.win_idx, lat.nbr_indices, lat.nbr_rows, lat.ones]
    for layout in (lat.nbr, lat.win, lat.leakage):
        arrays += [a for a in (layout.indptr, layout.indices, layout.data) if a is not None]
    assert len(arrays) == 4 + 3 + 2 + 3
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_layouts_refuse_wrong_sizes():
    # the kernels read their inputs without bounds checks
    lat = get_lattice(STRIPE_1D)
    m = lat.num_nodes
    with pytest.raises(ValueError, match="expected 100 values"):
        lat.nbr.matvec(np.ones(m - 1))
    with pytest.raises(ValueError, match="expected 100 values"):
        lat.win.rmatvec(np.ones((m, 1)), np.ones(len(lat.win.indices)))
    with pytest.raises(ValueError, match=f"expected {len(lat.nbr.indices)} entries"):
        lat.nbr.rmatvec(lat.ones, np.ones(len(lat.nbr.indices) + 1))
    with pytest.raises(ValueError, match="entries"):
        lat.win.rmatvec(lat.ones)  # W stores no entries


SRC = Path(__file__).resolve().parents[1] / "src"
# P v and P^T u on the stripe through scipy's public CSR product, bitwise
SAME_PRODUCTS = """
import numpy as np
from scipy import sparse
lat = lattice.get_lattice(lattice.LatticeConfig((1, 100), (1, 41), (1, 21), (1, 15)))
rng = np.random.default_rng(0)
post, v, u = rng.standard_normal(len(lat.nbr.indices)), rng.standard_normal(100), rng.standard_normal(100)
a = sparse.csr_array((post, lat.nbr.indices, lat.nbr.indptr), shape=lat.nbr.shape)
assert lat.nbr.matvec(v, post).tobytes() == (a @ v).tobytes()
assert lat.nbr.rmatvec(u, post).tobytes() == (a.T @ u).tobytes()
"""


def run_fresh(script):
    """Run script in a new interpreter; this process has scipy.sparse loaded."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_sparse_unloaded():
    # a later scipy.sparse import then shares the registered kernels
    run_fresh("import sys\nimport pmdnet.cli\nfrom pmdnet import lattice\n"
              "assert 'scipy.sparse' not in sys.modules\n"
              "assert sys.modules['scipy.sparse._sparsetools'] is lattice._sparsetools\n"
              "from scipy.sparse import _sparsetools\n"
              "assert _sparsetools is lattice._sparsetools\n" + SAME_PRODUCTS)


def test_scipy_sparse_imported_first_is_reused():
    run_fresh("from scipy.sparse import _sparsetools\nfrom pmdnet import lattice\n"
              "assert _sparsetools is lattice._sparsetools\n" + SAME_PRODUCTS)


def test_loader_reuses_a_registered_module(monkeypatch, tmp_path):
    registered = object()
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", registered)
    assert lattice._load_sparsetools(str(tmp_path)) is registered


def test_missing_kernels_name_the_scipy_version_and_pin(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    with pytest.raises(ImportError, match=rf"scipy {scipy.__version__} .*<1\.18"):
        lattice._load_sparsetools(str(tmp_path))
