"""Derivative kernels against literal-loop oracles and finite differences."""

import numpy as np
import pytest

from pmdnet.activation import NodeParams
from pmdnet.gradients import all_gradients, build_state, finite_difference_check, kernels
from pmdnet.lattice import LatticeConfig, get_lattice
from pmdnet.objective import SampleSet

from oracle_expanded import expanded_quantities, random_instance


def make_params(lattice, rng):
    m, k = lattice.num_nodes, lattice.window_len
    return NodeParams(weights=rng.uniform(-0.4, 0.4, (m, k)),
                      biases=rng.uniform(-0.3, 0.3, m),
                      ref_vectors=rng.uniform(-0.6, 0.6, (m, k)))


def test_build_state_invariants():
    rng = np.random.default_rng(20)
    for _ in range(5):
        cfg, params, x = random_instance(rng)
        lat = get_lattice(cfg)
        st = build_state(x, lat, params, lat.leakage)
        rows = np.asarray(st.p_rows.sum(axis=1)).reshape(-1)
        assert np.allclose(rows, 1.0, rtol=0, atol=1e-12)
        assert abs(st.p.sum() - lat.num_nodes) <= 1e-12 * lat.num_nodes
        assert np.allclose(st.dbar, st.pld.sum(axis=0), rtol=0, atol=1e-12)
        assert (st.e >= 0).all()
        # off-window components of the scattered residuals are zero
        mask = np.ones((lat.num_nodes, lat.input_size), dtype=bool)
        for y in range(lat.num_nodes):
            mask[y, lat.win_idx[y]] = False
        assert np.all(st.d[mask] == 0.0)


def test_state_matches_oracle_fields():
    rng = np.random.default_rng(21)
    for _ in range(5):
        cfg, params, x = random_instance(rng)
        lat = get_lattice(cfg)
        st = build_state(x, lat, params, lat.leakage)
        oq = expanded_quantities(x, cfg, params, 2.0)
        assert np.allclose(st.q, oq["q"], rtol=0, atol=1e-13)
        assert np.allclose(st.p, oq["p"], rtol=0, atol=1e-12)
        assert np.allclose(st.rho, oq["rho"], rtol=0, atol=1e-12)
        assert np.allclose(st.e, oq["e"], rtol=0, atol=1e-12)
        assert np.allclose(st.d, oq["d"], rtol=0, atol=1e-13)
        assert np.allclose(st.dbar, oq["dbar"], rtol=0, atol=1e-12)
        dense = np.zeros((lat.num_nodes, lat.num_nodes))
        for (r, c), v in oq["P"].items():
            dense[lat.flat(r), lat.flat(c)] = v
        assert np.allclose(st.p_rows.toarray(), dense, rtol=0, atol=1e-13)


def test_kernels_match_oracle():
    rng = np.random.default_rng(22)
    for _ in range(8):
        cfg, params, x = random_instance(rng)
        lat = get_lattice(cfg)
        st = build_state(x, lat, params, lat.leakage)
        oq = expanded_quantities(x, cfg, params, 2.0)
        f1, f2, g1, g2 = kernels(st)
        f1 = lat.scatter_rows(f1)
        for y in range(lat.num_nodes):
            assert np.allclose(f1[y], oq["f1"][y], rtol=0, atol=1e-12)
            # f2 = rho_y dbar exists only on node y's window
            assert np.allclose(f2[y], oq["f2"][y][lat.win_idx[y]], rtol=0, atol=1e-12)
            assert abs(g1[y] - oq["g1"][y]) <= 1e-12 * max(1.0, abs(oq["g1"][y]))
            assert abs(g2[y] - oq["g2"][y]) <= 1e-12 * max(1.0, abs(oq["g2"][y]))


def test_gradient_set_matches_oracle_assembly():
    rng = np.random.default_rng(23)
    for _ in range(4):
        cfg, params, _ = random_instance(rng, max_nodes=8)
        lat = get_lattice(cfg)
        xs = rng.uniform(-1, 1, (4, lat.input_size))
        n = float(rng.choice([1.0, 2.0, 5.0]))
        gs = all_gradients(SampleSet(vectors=xs), lat, params, lat.leakage, n)
        m = lat.num_nodes
        s = xs.shape[0]
        ref1 = np.zeros_like(gs.ref_d1)
        ref2 = np.zeros_like(gs.ref_d2)
        w1 = np.zeros_like(gs.weight_d1)
        w2 = np.zeros_like(gs.weight_d2)
        b1 = np.zeros(m)
        b2 = np.zeros(m)
        for x in xs:
            oq = expanded_quantities(x, cfg, params, n)
            sig = 1.0 - oq["q"]
            xw = x[lat.win_idx]
            for y in range(m):
                ref1[y] += oq["f1"][y][lat.win_idx[y]]
                ref2[y] += oq["f2"][y][lat.win_idx[y]]
            b1 += oq["g1"] * sig
            b2 += oq["g2"] * sig
            w1 += (oq["g1"] * sig)[:, None] * xw
            w2 += (oq["g2"] * sig)[:, None] * xw
        ref1 *= -4.0 / (n * m) / s
        ref2 *= -4.0 * (n - 1.0) / (n * m * m) / s
        b1 *= 2.0 / (n * m) / s
        w1 *= 2.0 / (n * m) / s
        b2 *= 4.0 * (n - 1.0) / (n * m * m) / s
        w2 *= 4.0 * (n - 1.0) / (n * m * m) / s
        for got, want in [(gs.ref_d1, ref1), (gs.ref_d2, ref2), (gs.weight_d1, w1),
                          (gs.weight_d2, w2), (gs.bias_d1, b1), (gs.bias_d2, b2)]:
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_single_node_degenerate_network():
    cfg = LatticeConfig(node_dims=(1, 1), input_window=(1, 3),
                        neighbourhood_window=(1, 1), leakage_window=(1, 1))
    lat = get_lattice(cfg)
    params = NodeParams(weights=np.array([[0.3, -0.2, 0.1]]), biases=np.array([0.4]),
                        ref_vectors=np.array([[0.5, 0.0, -0.5]]))
    x = np.array([0.2, -0.7, 0.9])
    st = build_state(x, lat, params, lat.leakage)
    assert st.p_rows.toarray().tolist() == [[1.0]]
    assert st.p.tolist() == [1.0]
    assert np.allclose(st.dbar, st.d[0], rtol=0, atol=1e-15)
    # one node cannot move probability mass anywhere: g kernels vanish
    _, _, g1, g2 = kernels(st)
    assert abs(g1[0]) <= 1e-15
    assert abs(g2[0]) <= 1e-15
    gs = all_gradients(SampleSet(vectors=x[None, :]), lat, params, lat.leakage, 2.0)
    assert np.allclose(gs.weight_total, 0.0, rtol=0, atol=1e-15)
    assert np.allclose(gs.bias_total, 0.0, rtol=0, atol=1e-15)


def test_uniform_activity_full_neighbourhood_unit_mass():
    # equal activities and untruncated neighbourhoods spread each window's
    # unit mass evenly, so every node collects exactly 1
    cfg = LatticeConfig(node_dims=(1, 5), input_window=(1, 3),
                        neighbourhood_window=(1, 9), leakage_window=(1, 1))
    lat = get_lattice(cfg)
    params = NodeParams(weights=np.zeros((5, 3)), biases=np.zeros(5),
                        ref_vectors=np.full((5, 3), 0.2))
    x = np.zeros(lat.input_size)
    st = build_state(x, lat, params, lat.leakage)
    assert np.allclose(st.p, 1.0, rtol=0, atol=1e-14)
    assert np.allclose(st.rho, 1.0, rtol=0, atol=1e-14)
    f1 = lat.scatter_rows(kernels(st)[0])
    for y in range(5):
        assert np.allclose(f1[y], st.d[y], rtol=0, atol=1e-15)


def test_perfect_reconstruction_kills_residual_kernels():
    rng = np.random.default_rng(24)
    cfg = LatticeConfig(node_dims=(1, 6), input_window=(1, 3),
                        neighbourhood_window=(1, 3), leakage_window=(1, 3))
    lat = get_lattice(cfg)
    params = make_params(lat, rng)
    x = rng.uniform(-1, 1, lat.input_size)
    params.ref_vectors[:] = lat.gather(x)
    st = build_state(x, lat, params, lat.leakage)
    f1, f2, g1, g2 = kernels(st)
    assert np.allclose(f1, 0.0, rtol=0, atol=1e-15)
    assert np.allclose(f2, 0.0, rtol=0, atol=1e-15)
    assert np.allclose(st.dbar, 0.0, rtol=0, atol=1e-15)
    for y in range(6):
        assert abs(g1[y]) <= 1e-15
        assert abs(g2[y]) <= 1e-15
    gs = all_gradients(SampleSet(vectors=x[None, :]), lat, params, lat.leakage, 3.0)
    assert np.allclose(gs.ref_d1, 0.0, rtol=0, atol=1e-15)
    assert np.allclose(gs.ref_d2, 0.0, rtol=0, atol=1e-15)


def test_constant_distortion_zeroes_g1():
    # constant per-node distortion survives any row-stochastic smoothing
    # unchanged, so the two g1 terms cancel exactly
    rng = np.random.default_rng(25)
    cfg = LatticeConfig(node_dims=(1, 7), input_window=(1, 3),
                        neighbourhood_window=(1, 3), leakage_window=(1, 5))
    lat = get_lattice(cfg)
    params = make_params(lat, rng)
    x = rng.uniform(-1, 1, lat.input_size)
    offset = np.array([0.3, -0.4, 0.1])
    params.ref_vectors[:] = lat.gather(x) + offset  # e_y = |offset|^2 for all y
    st = build_state(x, lat, params, lat.leakage)
    assert np.ptp(st.e) <= 1e-15
    g1 = kernels(st)[2]
    for y in range(7):
        assert abs(g1[y]) <= 1e-13


def test_n1_removes_coherent_gradients():
    rng = np.random.default_rng(26)
    cfg, params, x = random_instance(rng)
    lat = get_lattice(cfg)
    samples = SampleSet(vectors=x[None, :])
    gs = all_gradients(samples, lat, params, lat.leakage, 1.0)
    assert np.all(gs.ref_d2 == 0.0)
    assert np.all(gs.bias_d2 == 0.0)
    assert np.all(gs.weight_d2 == 0.0)


def test_finite_difference_check_passes():
    rng = np.random.default_rng(27)
    for n in (1.0, 2.0, 5.0):
        cfg = LatticeConfig(node_dims=(1, 5), input_window=(1, 3),
                            neighbourhood_window=(1, 3), leakage_window=(1, 3))
        lat = get_lattice(cfg)
        params = make_params(lat, rng)
        samples = SampleSet(vectors=rng.uniform(-1, 1, (3, lat.input_size)))
        report = finite_difference_check(samples, lat, params, lat.leakage, n)
        assert report.passed(1e-5), report.format_text(limit=3)
        assert len(report.entries) == 5 + 2 * 5 * 3


def test_finite_difference_check_detects_corruption():
    rng = np.random.default_rng(28)
    cfg = LatticeConfig(node_dims=(1, 4), input_window=(1, 3),
                        neighbourhood_window=(1, 3), leakage_window=(1, 3))
    lat = get_lattice(cfg)
    params = make_params(lat, rng)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (2, lat.input_size)))
    report = finite_difference_check(samples, lat, params, lat.leakage, 2.0,
                                     corrupt_first_component=True)
    assert not report.passed(1e-5)
    assert report.worst is not None and report.worst.kind == "ref"


def test_report_format_text():
    rng = np.random.default_rng(29)
    cfg = LatticeConfig(node_dims=(1, 3), input_window=(1, 1),
                        neighbourhood_window=(1, 3), leakage_window=(1, 1))
    lat = get_lattice(cfg)
    params = make_params(lat, rng)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (2, lat.input_size)))
    report = finite_difference_check(samples, lat, params, lat.leakage, 2.0)
    text = report.format_text(limit=2)
    assert text.startswith("kind node comp")
    assert "max_rel_error" in text
    assert len(text.splitlines()) == 4
