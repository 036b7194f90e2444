"""Geometry: windows, neighbourhoods, leakage."""

import numpy as np
import pytest

from pmdnet.lattice import (
    Lattice,
    LatticeConfig,
    build_leakage,
    get_lattice,
    input_window,
    inverse_neighbourhood,
    neighbourhood,
)

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
    dense = build_leakage(cfg).to_dense()
    assert np.array_equal(dense, np.eye(9))


def test_leakage_interior_uniform():
    lk = build_leakage(STRIPE_1D)
    row = lk.to_dense()[50]
    nz = np.nonzero(row)[0]
    assert list(nz) == list(range(43, 58))
    assert np.allclose(row[nz], 1.0 / 15.0, rtol=0, atol=1e-15)


def test_leakage_edge_renormalized():
    lk = build_leakage(STRIPE_1D)
    row = lk.to_dense()[0]
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
        dense = build_leakage(cfg).to_dense()
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
            k = lat.flat((i, j))
            got = {lat.coords(f) for f in lat.nbr_row(k)}
            assert got == neighbourhood(cfg, (i, j))


def test_get_lattice_caches():
    assert get_lattice(STRIPE_1D) is get_lattice(STRIPE_1D)
    assert isinstance(get_lattice(STRIPE_1D), Lattice)
