"""Derivative kernels against literal-loop oracles and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from pmdnet.activation import NodeParams, localized_posterior_rows
from pmdnet.gradients import (
    all_gradients,
    build_state,
    finite_difference_check,
    gradient_set_from_states,
    kernels,
)
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
        rows = np.bincount(lat.nbr_rows, weights=st.post, minlength=lat.num_nodes)
        assert np.allclose(rows, 1.0, rtol=0, atol=1e-12)
        assert abs(st.p.sum() - lat.num_nodes) <= 1e-12 * lat.num_nodes
        d = lat.scatter_rows(st.d_win)
        pld = localized_posterior_rows(st.q, lat) @ lat.leakage.apply(d)
        assert np.allclose(st.dbar, pld.sum(axis=0), rtol=0, atol=1e-12)
        assert (st.e >= 0).all()
        # off-window components of the scattered residuals are zero
        mask = np.ones((lat.num_nodes, lat.input_size), dtype=bool)
        for y in range(lat.num_nodes):
            mask[y, lat.win_idx[y]] = False
        assert np.all(d[mask] == 0.0)


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
        assert np.allclose(lat.scatter_rows(st.d_win), oq["d"], rtol=0, atol=1e-13)
        assert np.allclose(st.dbar, oq["dbar"], rtol=0, atol=1e-12)
        dense = np.zeros((lat.num_nodes, lat.num_nodes))
        for (r, c), v in oq["P"].items():
            dense[lat.flat(r), lat.flat(c)] = v
        # every entry of P, read through the layout it is stored in
        assert np.allclose(st.post, dense[lat.nbr_rows, lat.nbr_indices], rtol=0, atol=1e-13)
        assert len(st.post) == len(oq["P"])


def assert_kernels_match_oracle(cfg, params, x):
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


def test_kernels_match_oracle():
    rng = np.random.default_rng(22)
    for _ in range(8):
        assert_kernels_match_oracle(*random_instance(rng))


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
    with pytest.raises(ValueError, match="at least one sample"):
        gradient_set_from_states([], lat, 2.0)


def test_single_node_degenerate_network():
    cfg = LatticeConfig(node_dims=(1, 1), input_window=(1, 3),
                        neighbourhood_window=(1, 1), leakage_window=(1, 1))
    lat = get_lattice(cfg)
    params = NodeParams(weights=np.array([[0.3, -0.2, 0.1]]), biases=np.array([0.4]),
                        ref_vectors=np.array([[0.5, 0.0, -0.5]]))
    x = np.array([0.2, -0.7, 0.9])
    st = build_state(x, lat, params, lat.leakage)
    assert st.post.tolist() == [1.0]
    assert st.p.tolist() == [1.0]
    assert np.allclose(st.dbar, lat.scatter_rows(st.d_win)[0], rtol=0, atol=1e-15)
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
    d = lat.scatter_rows(st.d_win)
    for y in range(5):
        assert np.allclose(f1[y], d[y], rtol=0, atol=1e-15)


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


SATURATION_CONFIGS = [
    LatticeConfig(node_dims=(1, 100), input_window=(1, 41),
                  neighbourhood_window=(1, 21), leakage_window=(1, 15)),
    LatticeConfig(node_dims=(6, 7), input_window=(3, 3),
                  neighbourhood_window=(3, 5), leakage_window=(3, 3)),
]


@pytest.mark.parametrize("cfg", SATURATION_CONFIGS, ids=["stripe", "6x7"])
def test_saturated_activations_keep_gradients_finite(cfg):
    # biases of -740 make every activity subnormal (about 1e-321), so
    # 1 / denom overflows to inf; the posterior entries Q / denom do not
    rng = np.random.default_rng(30)
    lat = get_lattice(cfg)
    m, k = lat.num_nodes, lat.window_len
    params = NodeParams(weights=rng.uniform(-0.02, 0.02, (m, k)), biases=np.full(m, -740.0),
                        ref_vectors=rng.uniform(-0.6, 0.6, (m, k)))
    xs = rng.uniform(-1, 1, (3, lat.input_size))
    n = 5.0
    gs = all_gradients(SampleSet(vectors=xs), lat, params, lat.leakage, n)
    assert gs.all_finite()
    f1s, f2s, g1b, g2b, g1w, g2w = [], [], [], [], [], []
    for x in xs:
        st = build_state(x, lat, params, lat.leakage)
        assert np.all(st.q > 0) and np.all(st.q < 1e-300)
        assert np.all(np.isfinite(st.post)) and st.post.max() <= 1.0
        f1, f2, g1, g2 = kernels(st)
        sig = 1.0 - st.q
        f1s.append(f1)
        f2s.append(f2)
        g1b.append(g1 * sig)
        g2b.append(g2 * sig)
        g1w.append((g1 * sig)[:, None] * st.x_windows)
        g2w.append((g2 * sig)[:, None] * st.x_windows)
    c1, c2 = 2.0 / (n * m) / 3, 4.0 * (n - 1.0) / (n * m * m) / 3
    by_hand = [(gs.ref_d1, -2.0 * c1 * sum(f1s)), (gs.ref_d2, -c2 * sum(f2s)),
               (gs.bias_d1, c1 * sum(g1b)), (gs.bias_d2, c2 * sum(g2b)),
               (gs.weight_d1, c1 * sum(g1w)), (gs.weight_d2, c2 * sum(g2w))]
    for got, want in by_hand:
        assert np.all(np.isfinite(want))
        assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_state_has_no_full_input_arrays():
    # only the coherent residual dbar spans the D input cells; every other
    # per-sample array is windowed (M, K), per node (M,) or per P entry
    cfg = LatticeConfig(node_dims=(6, 7), input_window=(3, 3),
                        neighbourhood_window=(3, 5), leakage_window=(3, 3))
    lat = get_lattice(cfg)
    d = lat.input_size
    assert d not in (lat.num_nodes, lat.window_len, len(lat.nbr_indices))
    rng = np.random.default_rng(31)
    st = build_state(rng.uniform(-1, 1, d), lat, make_params(lat, rng), lat.leakage)
    arrays = {name: value for name, value in vars(st).items() if isinstance(value, np.ndarray)}
    assert set(arrays) >= {"x_windows", "q", "post", "p", "rho", "d_win", "e", "dbar"}
    assert [name for name, a in arrays.items() if d in a.shape] == ["dbar"]
    assert arrays["dbar"].shape == (d,)


def _odd(draw, upper):
    return 2 * draw(st_.integers(0, upper)) + 1


@st_.composite
def truncated_instances(draw):
    """A small lattice whose windows are often cut at the edges, with
    random parameters and one input."""
    m1 = draw(st_.integers(1, 3))
    m2 = draw(st_.integers(2, 5))
    cfg = LatticeConfig(
        node_dims=(m1, m2),
        input_window=(_odd(draw, 1), _odd(draw, 2)),
        neighbourhood_window=(_odd(draw, 2), _odd(draw, 3)),
        leakage_window=(_odd(draw, 2), _odd(draw, 3)),
    )
    rng = np.random.default_rng(draw(st_.integers(0, 2**32 - 1)))
    lat = get_lattice(cfg)
    return cfg, make_params(lat, rng), rng.uniform(-1, 1, lat.input_size)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(truncated_instances())
def test_kernels_match_oracle_on_random_truncated_geometries(instance):
    assert_kernels_match_oracle(*instance)
