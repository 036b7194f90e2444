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
)
from pmdnet.lattice import LatticeConfig, get_lattice
from pmdnet.objective import SampleSet

from helpers import dense_operator, flat, kernels
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
        st = build_state(x, lat, params)
        rows = np.bincount(lat.nbr_rows, weights=st.post, minlength=lat.num_nodes)
        assert np.allclose(rows, 1.0, rtol=0, atol=1e-12)
        assert abs(st.p.sum() - lat.num_nodes) <= 1e-12 * lat.num_nodes
        d = lat.scatter_rows(st.d_win)
        pld = localized_posterior_rows(st.q, lat) @ (dense_operator(lat.leakage) @ d)
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
        st = build_state(x, lat, params)
        oq = expanded_quantities(x, cfg, params, 2.0)
        assert np.allclose(st.q, oq["q"], rtol=0, atol=1e-13)
        assert np.allclose(st.p, oq["p"], rtol=0, atol=1e-12)
        assert np.allclose(st.rho, oq["rho"], rtol=0, atol=1e-12)
        assert np.allclose(st.e, oq["e"], rtol=0, atol=1e-12)
        assert np.allclose(lat.scatter_rows(st.d_win), oq["d"], rtol=0, atol=1e-13)
        assert np.allclose(st.dbar, oq["dbar"], rtol=0, atol=1e-12)
        dense = np.zeros((lat.num_nodes, lat.num_nodes))
        for (r, c), v in oq["P"].items():
            dense[flat(lat, r), flat(lat, c)] = v
        # every entry of P, read through the layout it is stored in
        assert np.allclose(st.post, dense[lat.nbr_rows, lat.nbr_indices], rtol=0, atol=1e-13)
        assert len(st.post) == len(oq["P"])


def assert_kernels_match_oracle(cfg, params, x):
    lat = get_lattice(cfg)
    st = build_state(x, lat, params)
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


def split_terms(f1, f2, g1, g2, sig, xw):
    """The six per-sample d1/d2 terms before coefficients, ordered as
    ref d1, ref d2, bias d1, bias d2, weight d1, weight d2."""
    return f1, f2, g1 * sig, g2 * sig, (g1 * sig)[:, None] * xw, (g2 * sig)[:, None] * xw


def split_coefficients(n, m, s):
    c_ref1, c_ref2 = -4.0 / (n * m) / s, -4.0 * (n - 1.0) / (n * m * m) / s
    c_prob1, c_prob2 = 2.0 / (n * m) / s, 4.0 * (n - 1.0) / (n * m * m) / s
    return c_ref1, c_ref2, c_prob1, c_prob2, c_prob1, c_prob2


def totals_of(parts):
    """(bias, weight, ref) totals from the six parts of split_terms."""
    return parts[2] + parts[3], parts[4] + parts[5], parts[0] + parts[1]


def test_gradient_set_matches_oracle_assembly():
    rng = np.random.default_rng(23)
    for _ in range(4):
        cfg, params, _ = random_instance(rng, max_nodes=8)
        lat = get_lattice(cfg)
        xs = rng.uniform(-1, 1, (4, lat.input_size))
        n = float(rng.choice([1.0, 2.0, 5.0]))
        gs = all_gradients(SampleSet(vectors=xs), lat, params, n)
        m = lat.num_nodes
        on_window = np.arange(m)[:, None], lat.win_idx
        oracle, split = [0.0] * 6, [0.0] * 6
        for x in xs:
            oq = expanded_quantities(x, cfg, params, n)
            terms = split_terms(oq["f1"][on_window], oq["f2"][on_window], oq["g1"], oq["g2"],
                                1.0 - oq["q"], x[lat.win_idx])
            oracle = [acc + t for acc, t in zip(oracle, terms)]
            st = build_state(x, lat, params)
            terms = split_terms(*kernels(st), 1.0 - st.q, st.x_windows)
            split = [acc + t for acc, t in zip(split, terms)]
        coeffs = split_coefficients(n, m, xs.shape[0])
        oracle = [c * part for c, part in zip(coeffs, oracle)]
        # the d1/d2 split, read through kernels()
        for c, got, want in zip(coeffs, split, oracle):
            assert np.allclose(c * got, want, rtol=0, atol=1e-12)
        for got, want in zip((gs.bias_total, gs.weight_total, gs.ref_total), totals_of(oracle)):
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
    st = build_state(x, lat, params)
    assert st.post.tolist() == [1.0]
    assert st.p.tolist() == [1.0]
    assert np.allclose(st.dbar, lat.scatter_rows(st.d_win)[0], rtol=0, atol=1e-15)
    # one node cannot move probability mass anywhere: g kernels vanish
    _, _, g1, g2 = kernels(st)
    assert abs(g1[0]) <= 1e-15
    assert abs(g2[0]) <= 1e-15
    gs = all_gradients(SampleSet(vectors=x[None, :]), lat, params, 2.0)
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
    st = build_state(x, lat, params)
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
    st = build_state(x, lat, params)
    f1, f2, g1, g2 = kernels(st)
    assert np.allclose(f1, 0.0, rtol=0, atol=1e-15)
    assert np.allclose(f2, 0.0, rtol=0, atol=1e-15)
    assert np.allclose(st.dbar, 0.0, rtol=0, atol=1e-15)
    for y in range(6):
        assert abs(g1[y]) <= 1e-15
        assert abs(g2[y]) <= 1e-15
    gs = all_gradients(SampleSet(vectors=x[None, :]), lat, params, 3.0)
    assert np.allclose(gs.ref_total, 0.0, rtol=0, atol=1e-15)


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
    st = build_state(x, lat, params)
    assert np.ptp(st.e) <= 1e-15
    g1 = kernels(st)[2]
    for y in range(7):
        assert abs(g1[y]) <= 1e-13


def test_n1_removes_coherent_gradients():
    rng = np.random.default_rng(26)
    cfg, params, x = random_instance(rng)
    lat = get_lattice(cfg)
    samples = SampleSet(vectors=x[None, :])
    gs = all_gradients(samples, lat, params, 1.0)
    # the d2 coefficients are 0, so the totals are exactly the d1 parts
    st = build_state(x, lat, params)
    g1 = kernels(st)[2]
    m = lat.num_nodes
    bias_d1 = (2.0 / m * g1) * (1.0 - st.q)
    assert np.all(gs.bias_total == bias_d1)
    assert np.all(gs.weight_total == bias_d1[:, None] * st.x_windows)
    assert np.all(gs.ref_total == (-4.0 / m * st.rho)[:, None] * st.d_win)


def test_finite_difference_check_passes():
    rng = np.random.default_rng(27)
    for n in (1.0, 2.0, 5.0):
        cfg = LatticeConfig(node_dims=(1, 5), input_window=(1, 3),
                            neighbourhood_window=(1, 3), leakage_window=(1, 3))
        lat = get_lattice(cfg)
        params = make_params(lat, rng)
        samples = SampleSet(vectors=rng.uniform(-1, 1, (3, lat.input_size)))
        report = finite_difference_check(samples, lat, params, n)
        assert report.passed(), report.format_text()
        assert len(report.entries) == 5 + 2 * 5 * 3


def test_finite_difference_check_detects_corruption():
    rng = np.random.default_rng(28)
    cfg = LatticeConfig(node_dims=(1, 4), input_window=(1, 3),
                        neighbourhood_window=(1, 3), leakage_window=(1, 3))
    lat = get_lattice(cfg)
    params = make_params(lat, rng)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (2, lat.input_size)))
    report = finite_difference_check(samples, lat, params, 2.0, corrupt_first_component=True)
    assert not report.passed()
    assert max(report.entries, key=lambda e: e.rel_error).kind == "ref"


def test_report_format_text():
    rng = np.random.default_rng(29)
    cfg = LatticeConfig(node_dims=(1, 3), input_window=(1, 1),
                        neighbourhood_window=(1, 3), leakage_window=(1, 1))
    lat = get_lattice(cfg)
    params = make_params(lat, rng)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (2, lat.input_size)))
    report = finite_difference_check(samples, lat, params, 2.0)
    lines = report.format_text().splitlines()
    assert lines[0] == "kind node comp analytic numeric rel_error"
    assert lines[-1].startswith("max_rel_error ") and lines[-1].endswith(" over 9 components")
    assert len(lines) == 11  # every one of the 3 bias and 2 * 3 * 1 weight and ref components
    errors = [float(line.split()[-1]) for line in lines[1:-1]]
    assert errors == sorted(errors, reverse=True)


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
    gs = all_gradients(SampleSet(vectors=xs), lat, params, n)
    assert all(np.isfinite(a).all() for a in (gs.bias_total, gs.weight_total, gs.ref_total))
    parts, mags = [0.0] * 6, [0.0] * 6
    for x in xs:
        st = build_state(x, lat, params)
        assert np.all(st.q > 0) and np.all(st.q < 1e-300)
        assert np.all(np.isfinite(st.post)) and st.post.max() <= 1.0
        terms = split_terms(*kernels(st), 1.0 - st.q, st.x_windows)
        parts = [acc + t for acc, t in zip(parts, terms)]
        mags = [acc + np.abs(t) for acc, t in zip(mags, terms)]
    coeffs = split_coefficients(n, m, 3)
    by_hand = totals_of([c * part for c, part in zip(coeffs, parts)])
    # a total adds the d1 and d2 terms of every sample, so its rounding is
    # relative to the magnitudes of those terms, not to the total itself
    scales = totals_of([abs(c) * mag for c, mag in zip(coeffs, mags)])
    for got, want, scale in zip((gs.bias_total, gs.weight_total, gs.ref_total), by_hand, scales):
        assert np.all(np.isfinite(want))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_state_has_no_full_input_arrays():
    # only the coherent residual dbar spans the D input cells; every other
    # per-sample array is windowed (M, K), per node (M,) or per P entry
    cfg = LatticeConfig(node_dims=(6, 7), input_window=(3, 3),
                        neighbourhood_window=(3, 5), leakage_window=(3, 3))
    lat = get_lattice(cfg)
    d = lat.input_size
    assert d not in (lat.num_nodes, lat.window_len, len(lat.nbr_indices))
    rng = np.random.default_rng(31)
    st = build_state(rng.uniform(-1, 1, d), lat, make_params(lat, rng))
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
