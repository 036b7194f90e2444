"""Distortion functionals, the exact decomposition oracle, stationarity."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from pmdnet import objective
from pmdnet.activation import DegenerateActivityError, NodeParams, activities
from pmdnet.cli import DEFAULTS
from pmdnet.gradients import build_state
from pmdnet.lattice import Lattice, LatticeConfig, get_lattice
from pmdnet.objective import (
    ENUMERATION_GUARD,
    MAX_FIRINGS,
    SampleSet,
    StationaritySolveError,
    bound_from_posterior,
    bound_weights,
    compute_D1_D2,
    compute_D_exact,
    forward,
    solve_stationary_refvectors,
    stationary_form_value,
)
from pmdnet.trainer import heldout_samples, new_state

from helpers import forward_one, objective_one_at_a_time, ref_vectors_from_posterior
from oracle_exact import exact_distortion
from oracle_expanded import expanded_quantities, random_instance


def small_lattice():
    return get_lattice(LatticeConfig(node_dims=(1, 4), input_window=(1, 3),
                                     neighbourhood_window=(1, 3), leakage_window=(1, 3)))


def random_params(lattice, rng):
    m, k = lattice.num_nodes, lattice.window_len
    return NodeParams(weights=rng.uniform(-0.4, 0.4, (m, k)),
                      biases=rng.uniform(-0.3, 0.3, m),
                      ref_vectors=rng.uniform(-0.6, 0.6, (m, k)))


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(vectors=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        SampleSet(vectors=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SampleSet(vectors=np.array([[np.inf, 0.0]]))


def test_ref_vectors_single_sample_is_windowed_sample():
    lat = small_lattice()
    x = np.arange(1.0, 7.0)  # input dim = 6
    samples = SampleSet(vectors=x[None, :])
    post = np.array([[0.1, 0.2, 0.3, 0.4]])
    ref, attached = ref_vectors_from_posterior(samples, post, lat)
    assert attached.all()
    for y in range(4):
        expect = np.zeros(6)
        expect[lat.win_idx[y]] = x[lat.win_idx[y]]
        assert np.allclose(ref[y], expect, rtol=0, atol=1e-15)


def test_ref_vectors_symmetric_samples_cancel():
    v = np.array([0.3, -1.0, 2.0])
    samples = SampleSet(vectors=np.stack([v, -v]))
    post = np.full((2, 3), 1 / 3)
    ref, attached = ref_vectors_from_posterior(samples, post)
    assert attached.all()
    assert np.allclose(ref, 0.0, rtol=0, atol=1e-15)


def test_ref_vectors_weighted_mean_direct():
    samples = SampleSet(vectors=np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
    post = np.array([[0.5, 0.5], [0.25, 0.75], [0.1, 0.9]])
    ref, attached = ref_vectors_from_posterior(samples, post)
    for y in range(2):
        w = post[:, y]
        expect = (w[:, None] * samples.vectors).sum(axis=0) / w.sum()
        assert np.allclose(ref[y], expect, rtol=0, atol=1e-14)
    assert attached.all()


def test_ref_vectors_unattached_node_flagged():
    samples = SampleSet(vectors=np.array([[1.0], [2.0]]))
    post = np.array([[1.0, 0.0], [1.0, 0.0]])
    ref, attached = ref_vectors_from_posterior(samples, post)
    assert attached[0] and not attached[1]
    assert ref[1, 0] == 0.0


def test_bound_from_posterior_n1_has_no_coherent_term():
    rng = np.random.default_rng(0)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (5, 3)))
    post = rng.uniform(0.1, 1, (5, 4))
    post /= post.sum(axis=1, keepdims=True)
    ref = rng.normal(size=(4, 3))
    bv = bound_from_posterior(samples, post, ref, n=1)
    assert bv.d2 == 0.0
    assert bv.d1 > 0


def test_compute_D1_D2_n1_kills_d2():
    lat = small_lattice()
    rng = np.random.default_rng(1)
    params = random_params(lat, rng)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (5, lat.input_size)))
    bv = compute_D1_D2(samples, lat, params, 1.0)
    assert bv.d2 == 0.0
    assert bv.d1 >= 0.0


def test_compute_D1_D2_zero_residuals_give_zero():
    lat = small_lattice()
    rng = np.random.default_rng(2)
    params = random_params(lat, rng)
    x = rng.uniform(-1, 1, lat.input_size)
    params.ref_vectors[:] = lat.gather(x)  # perfect windowed reconstruction
    samples = SampleSet(vectors=x[None, :])
    bv = compute_D1_D2(samples, lat, params, 3.0)
    assert abs(bv.d1) <= 1e-15
    assert abs(bv.d2) <= 1e-15


def test_compute_D1_D2_matches_literal_loops():
    rng = np.random.default_rng(3)
    for _ in range(6):
        cfg, params, _ = random_instance(rng, max_nodes=8)
        lat = get_lattice(cfg)
        samples = SampleSet(vectors=rng.uniform(-1, 1, (5, lat.input_size)))
        for n in (1.0, 2.0, 5.0):
            bv = compute_D1_D2(samples, lat, params, n)
            d1 = np.mean([expanded_quantities(x, cfg, params, n)["d1"] for x in samples.vectors])
            d2 = np.mean([expanded_quantities(x, cfg, params, n)["d2"] for x in samples.vectors])
            assert abs(bv.d1 - d1) <= 1e-12 * max(1.0, abs(d1))
            assert abs(bv.d2 - d2) <= 1e-12 * max(1.0, abs(d2))


def test_exact_n1_reduces_to_d1():
    rng = np.random.default_rng(4)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (8, 2)))
    post = rng.uniform(0.1, 1, (8, 5))
    post /= post.sum(axis=1, keepdims=True)
    ex = compute_D_exact(samples, post, n=1)
    assert ex.d2 == 0.0
    assert abs(ex.d3) <= 1e-30  # single firing: centroid mean == centroid
    assert abs(ex.distortion - ex.d1) <= 1e-12 * max(1.0, abs(ex.d1))


def test_exact_decomposition_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(8):
        s = int(rng.integers(3, 21))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        samples = SampleSet(vectors=rng.uniform(-1, 1, (s, 3)))
        post = rng.uniform(0.05, 1, (s, m))
        post /= post.sum(axis=1, keepdims=True)
        ex = compute_D_exact(samples, post, n=n)
        scale = max(1.0, abs(ex.distortion))
        assert abs(ex.distortion - (ex.d1 + ex.d2 - ex.d3)) <= 1e-10 * scale
        assert ex.d3 >= -1e-12 * scale
        assert ex.distortion <= ex.d1 + ex.d2 + 1e-10 * scale
        assert ex.d1 >= 0.0
        assert ex.d2 >= -1e-15  # independent firing: coherent term is a square


def test_exact_enumeration_guard():
    samples = SampleSet(vectors=np.zeros((2, 1)))
    post = np.full((2, 101), 1 / 101)
    with pytest.raises(ValueError):
        compute_D_exact(samples, post, n=3)  # 101^3 > 1e6


def test_exact_enumeration_guard_holds_for_a_joint_table():
    m = 1001  # M^2 = 1 002 001 pairs, a valid symmetric joint otherwise
    jt = np.full((1, m, m), 1.0 / m**2)
    with pytest.raises(ValueError, match=f"M\\^n = {m**2} exceeds enumeration guard"):
        compute_D_exact(SampleSet(vectors=np.zeros((1, 1))), n=2, joint=jt)


def test_exact_refuses_a_negative_posterior_entry():
    # the row sums to 1; enumerated anyway, it gave D = -3.0 and D3 = -0.25
    samples = SampleSet(vectors=np.array([[1.0]]))
    with pytest.raises(ValueError, match="posterior entries must be nonnegative"):
        compute_D_exact(samples, np.array([[1.5, -0.5]]), n=2)


def test_exact_firings_guard_holds_at_one_node():
    # at M = 1, M^n = 1 passes the tuple guard for any n; n itself is capped
    assert 2**MAX_FIRINGS <= ENUMERATION_GUARD < 2 ** (MAX_FIRINGS + 1)
    samples = SampleSet(vectors=np.zeros((2, 1)))
    post = np.ones((2, 1))
    assert compute_D_exact(samples, post, n=MAX_FIRINGS).distortion == 0.0
    for n in (MAX_FIRINGS + 1, 70, 10**9):
        with pytest.raises(ValueError, match=f"n = {n} exceeds {MAX_FIRINGS}"):
            compute_D_exact(samples, post, n=n)
    with pytest.raises(ValueError, match="n must be >= 1"):
        compute_D_exact(samples, post, n=0)


def exact_instance(seed, s, m, dim, zero_node=None):
    """Samples in [-1, 1]^dim and a posterior; a zero column leaves every
    tuple through that node unattached."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (s, dim))
    raw = rng.uniform(0.1, 1.0, (s, m))
    if zero_node is not None:
        raw[:, zero_node] = 0.0
    return SampleSet(vectors=x), raw / raw.sum(axis=1, keepdims=True)


def test_exact_matches_literal_per_tuple_oracle():
    rng = np.random.default_rng(21)
    max_nodes = {1: 9, 2: 9, 3: 4, 4: 3}  # M^n <= 81
    for trial in range(36):
        dim, n = 1 + trial % 9, 1 + trial // 9
        m = int(rng.integers(1, max_nodes[n] + 1))
        zero_node = int(rng.integers(m)) if m > 1 and trial % 3 == 0 else None
        samples, post = exact_instance([21, trial], int(rng.integers(1, 7)), m, dim, zero_node)
        got = compute_D_exact(samples, post, n=n)
        want = exact_distortion(samples.vectors.tolist(), post.tolist(), n)
        for name, g, w in zip(("D", "D1", "D2", "D3"), got, want):
            # pieces that vanish in exact arithmetic (D3 at n = 1 or M = 1,
            # D2 at S = 1) are rounding-level, far below 1e-28 on [-1, 1]
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-28), (trial, name, g, w)


# (seed, S, M, n, dim, zero node, float.hex of (D, D1, D2, D3)), recorded
# from the (T, dim) rendering of the enumeration; dim < 8 keeps every row
# sum sequential, so the component-major one must agree bit for bit.
EXACT_PINNED = [
    (11, 6, 3, 2, 1, None, ('0x1.8ebae036367cap-1', '0x1.95abb09b3b702p-2',
                            '0x1.8fa3a56e169d5p-2', '0x1.f665673945033p-8')),
    (12, 5, 4, 3, 3, 1, ('0x1.e1d78af178a3cp+0', '0x1.5805fe69316bcp-1',
                         '0x1.4d3f3d956d1d7p+0', '0x1.76ab1d88d2fabp-4')),
    (13, 4, 3, 4, 7, None, ('0x1.9f5024a64f28fp+1', '0x1.035359a3a0472p+0',
                            '0x1.668cd6e77defdp+1', '0x1.23997c4bfba9ap-1')),
    (14, 20, 5, 2, 4, 0, ('0x1.46639e28c6124p+1', '0x1.4a2693b663f31p+0',
                          '0x1.46c50565b0d53p+0', '0x1.091732a228e01p-6')),
    (15, 9, 2, 4, 5, 1, ('0x1.895aefbccf4dbp+1', '0x1.895aefbccf4dap-1',
                         '0x1.270433cd9b7a4p+1', '0x1.a080000000002p-106')),
]


@pytest.mark.parametrize("seed, s, m, n, dim, zero_node, pinned", EXACT_PINNED)
def test_exact_values_are_pinned_bitwise(seed, s, m, n, dim, zero_node, pinned):
    samples, post = exact_instance(seed, s, m, dim, zero_node)
    got = compute_D_exact(samples, post, n=n)
    assert [v.hex() for v in got] == list(pinned)


def test_exact_enumeration_memory_is_component_major():
    # the bench instance: 20^4 tuples at dim 4; a (T, dim) temporary per
    # step would need several dim-wide arrays, this bound allows about two
    m, n, dim = 20, 4, 4
    samples, post = exact_instance([0, 5], 20, m, dim)
    tracemalloc.start()
    try:
        compute_D_exact(samples, post, n=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (2 * dim + 6) * m**n * 8


def test_exact_joint_anticorrelated_negative_d2():
    # firing pairs forbidden on the diagonal at x = 0 make the cross
    # residual product negative: d2 = -2/27 by direct arithmetic
    x = np.array([[-1.0], [0.0], [1.0]])
    jt = np.zeros((3, 2, 2))
    jt[0, 0, 0] = 1.0
    jt[2, 1, 1] = 1.0
    jt[1, 0, 1] = 0.5
    jt[1, 1, 0] = 0.5
    ex = compute_D_exact(SampleSet(vectors=x), n=2, joint=jt)
    assert abs(ex.d2 - (-2.0 / 27.0)) <= 1e-14
    assert abs(ex.d1 - 2.0 / 9.0) <= 1e-14
    assert abs(ex.distortion) <= 1e-14  # every pair identifies its sample
    assert abs(ex.distortion - (ex.d1 + ex.d2 - ex.d3)) <= 1e-14
    assert ex.d3 >= 0.0


def test_exact_joint_random_symmetric_identity():
    rng = np.random.default_rng(6)
    for _ in range(5):
        s, m = 6, 3
        samples = SampleSet(vectors=rng.uniform(-1, 1, (s, 2)))
        a = rng.uniform(0.05, 1.0, (s, m, m))
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        jt = a / a.sum(axis=(1, 2), keepdims=True)
        ex = compute_D_exact(samples, n=2, joint=jt)
        scale = max(1.0, abs(ex.distortion))
        assert abs(ex.distortion - (ex.d1 + ex.d2 - ex.d3)) <= 1e-10 * scale
        assert ex.d3 >= -1e-12
        assert ex.distortion <= ex.d1 + ex.d2 + 1e-10 * scale


def test_exact_joint_requires_n2_and_symmetry():
    samples = SampleSet(vectors=np.zeros((2, 1)))
    jt = np.full((2, 2, 2), 0.25)
    with pytest.raises(ValueError):
        compute_D_exact(samples, n=3, joint=jt)
    bad = jt.copy()
    bad[:, 0, 1] = 0.4
    bad[:, 1, 0] = 0.1
    with pytest.raises(ValueError):
        compute_D_exact(samples, n=2, joint=bad)


def test_exact_factorized_joint_matches_posterior_path():
    rng = np.random.default_rng(7)
    s, m = 5, 3
    samples = SampleSet(vectors=rng.uniform(-1, 1, (s, 2)))
    post = rng.uniform(0.1, 1, (s, m))
    post /= post.sum(axis=1, keepdims=True)
    jt = post[:, :, None] * post[:, None, :]
    a = compute_D_exact(samples, post, n=2)
    b = compute_D_exact(samples, n=2, joint=jt)
    for u, v in zip(a, b):
        assert abs(u - v) <= 1e-12 * max(1.0, abs(u))


def test_stationary_form_zero_refs():
    rng = np.random.default_rng(8)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (4, 3)))
    post = np.full((4, 2), 0.5)
    assert stationary_form_value(samples, post, np.zeros((2, 3)), 3.0) == 0.0


def test_stationary_form_n1_drops_coherent_term():
    rng = np.random.default_rng(9)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (4, 3)))
    post = rng.uniform(0.1, 1, (4, 2))
    post /= post.sum(axis=1, keepdims=True)
    ref = rng.normal(size=(2, 3))
    got = stationary_form_value(samples, post, ref, 1.0)
    norms = (ref**2).sum(axis=1)
    expect = -2.0 * float((post @ norms).mean())
    assert abs(got - expect) <= 1e-14


def test_solver_n1_returns_bayes_centroids():
    rng = np.random.default_rng(10)
    samples = SampleSet(vectors=rng.uniform(-1, 1, (12, 3)))
    post = rng.uniform(0.1, 1, (12, 4))
    post /= post.sum(axis=1, keepdims=True)
    got = solve_stationary_refvectors(samples, post, n=1.0)
    expect, _ = ref_vectors_from_posterior(samples, post)
    assert np.allclose(got, expect, rtol=0, atol=1e-12)


def test_solver_zeroes_finite_difference_gradient():
    rng = np.random.default_rng(11)
    for n in (1.0, 2.0, 5.0):
        samples = SampleSet(vectors=rng.uniform(-1, 1, (10, 2)))
        post = rng.uniform(0.1, 1, (10, 4))
        post /= post.sum(axis=1, keepdims=True)
        sol = solve_stationary_refvectors(samples, post, n=n)
        step = 1e-4
        for y in range(4):
            for c in range(2):
                up = sol.copy(); up[y, c] += step
                dn = sol.copy(); dn[y, c] -= step
                fd = (bound_from_posterior(samples, post, up, n).total
                      - bound_from_posterior(samples, post, dn, n).total) / (2 * step)
                assert abs(fd) <= 1e-8


def test_solver_hard_disjoint_posteriors_single_ring():
    # every sample owned by exactly one node: the coupling matrix is the
    # identity and the solution collapses to plain conditional centroids,
    # with the unused coordinate block exactly zero
    g, m = 12, 4
    ang = 2 * np.pi * np.arange(g) / g
    x = np.stack([np.cos(ang), np.sin(ang), np.zeros(g), np.zeros(g)], axis=1)
    owner = (np.floor(ang / (2 * np.pi / m) + 0.5).astype(int)) % m
    post = np.zeros((g, m))
    post[np.arange(g), owner] = 1.0
    for n in (1.0, 2.0, 400.0):
        sol = solve_stationary_refvectors(SampleSet(vectors=x), post, n=n)
        bayes, _ = ref_vectors_from_posterior(SampleSet(vectors=x), post)
        assert np.allclose(sol, bayes, rtol=0, atol=1e-12)
        assert np.allclose(sol[:, 2:], 0.0, rtol=0, atol=1e-15)


def test_bound_weights_give_the_coefficients_bitwise():
    # the objective weighs by w1, w2 and the gradients by w1, 2 w2, -2 w1 and
    # -2 w2; each equals the literal formula it replaced, to the last bit
    for n in (1.0, 2.0, 3.0, 400.0, 1e6):
        for m in (1, 8, 100, 1600):
            w1, w2 = bound_weights(n, m)
            assert w1 == 2.0 / (n * m)
            assert w2 == 2.0 * (n - 1.0) / (n * m * m)
            assert 2.0 * w2 == 4.0 * (n - 1.0) / (n * m * m)
            assert -2.0 * w1 == -4.0 / (n * m)
            assert -2.0 * w2 == -4.0 * (n - 1.0) / (n * m * m)


def test_bound_weights_stay_finite_where_n_m_squared_overflows():
    # n M^2 overflows at these n; each weight is the exact fraction to
    # within 1e-15, and w1 = 2 / (n M), below the normal range here, also to
    # within the half step 2^-1075 of its one rounding to a subnormal
    for n in (1e306, 1e308, sys.float_info.max):
        for m in (1, 8, 100, 1600):
            w1, w2 = bound_weights(n, m)
            exact1 = Fraction(2) / (Fraction(n) * m)
            exact2 = 2 * (Fraction(n) - 1) / (Fraction(n) * m * m)
            assert 0.0 < w1 and 0.0 < w2 < math.inf
            assert abs(Fraction(w1) - exact1) <= Fraction(1e-15) * exact1 + Fraction(1, 2**1075)
            assert abs(Fraction(w2) - exact2) <= Fraction(1e-15) * exact2


def test_solver_error_reports(monkeypatch):
    samples = SampleSet(vectors=np.array([[1.0], [2.0]]))
    dead = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(StationaritySolveError):
        solve_stationary_refvectors(samples, dead, n=2.0)
    ok = np.array([[0.9, 0.1], [0.2, 0.8]])
    monkeypatch.setattr("pmdnet.objective.STATIONARY_COND_LIMIT", 1.0)
    with pytest.raises(StationaritySolveError):
        solve_stationary_refvectors(samples, ok, n=2.0)


def test_stationary_form_matches_model_objective_on_common_support():
    # configuration where the model objective coincides with the plain
    # fixed-posterior bound: every window sees the whole support of the
    # data, the neighbourhood covers the lattice, and leakage is identity
    cfg = LatticeConfig(node_dims=(1, 4), input_window=(1, 7),
                        neighbourhood_window=(1, 7), leakage_window=(1, 1))
    lat = get_lattice(cfg)
    rng = np.random.default_rng(12)
    weights = rng.uniform(-0.4, 0.4, (4, 7))
    biases = rng.uniform(-0.2, 0.2, 4)
    # samples supported on input cells 3..6, inside every node's window
    x = np.zeros((6, lat.input_size))
    x[:, 3:7] = rng.uniform(-1, 1, (6, 4))
    samples = SampleSet(vectors=x)

    params = NodeParams(weights=weights, biases=biases, ref_vectors=np.zeros((4, 7)))
    post = np.stack([activities(lat.gather(v), params) for v in x])
    post /= post.sum(axis=1, keepdims=True)

    n = 3.0
    sol = solve_stationary_refvectors(samples, post, n=n)
    ref_win = sol[np.arange(4)[:, None], lat.win_idx]
    # off-support components vanish, so the window embedding is lossless
    assert np.allclose(lat.scatter_rows(ref_win), sol, rtol=0, atol=1e-12)

    params_sol = NodeParams(weights=weights, biases=biases, ref_vectors=ref_win)
    model = compute_D1_D2(samples, lat, params_sol, n)
    const = 2.0 * float((x**2).sum(axis=1).mean())
    form = stationary_form_value(samples, post, sol, n)
    assert abs(model.total - (form + const)) <= 1e-10 * max(1.0, abs(model.total))


def _odd(draw, upper):
    return 2 * draw(st_.integers(0, upper)) + 1


@st_.composite
def block_instances(draw):
    """A small 1D or 2D lattice whose neighbourhood and leakage windows are
    often cut at the edges, with K >= 9 so that window sums run numpy's
    pairwise summation; 1-7 samples; a block size that need not divide
    them; a seed."""
    if draw(st_.booleans()):
        cfg = LatticeConfig(node_dims=(1, draw(st_.integers(1, 8))),
                            input_window=(1, draw(st_.sampled_from([9, 11]))),
                            neighbourhood_window=(1, _odd(draw, 4)), leakage_window=(1, _odd(draw, 3)))
    else:
        cfg = LatticeConfig(node_dims=(draw(st_.integers(2, 4)), draw(st_.integers(2, 4))),
                            input_window=draw(st_.sampled_from([(3, 3), (3, 5), (5, 3)])),
                            neighbourhood_window=(_odd(draw, 2), _odd(draw, 2)),
                            leakage_window=(_odd(draw, 2), _odd(draw, 1)))
    return cfg, draw(st_.integers(1, 7)), draw(st_.integers(1, 7)), draw(st_.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block_instances())
def test_blocks_are_bitwise_the_one_sample_loop(instance):
    cfg, size, block, seed = instance
    lat = Lattice(cfg)
    rng = np.random.default_rng(seed)
    params = random_params(lat, rng)
    # magnitudes over four decades, so that another order of addition
    # would change the rounded sums
    xs = rng.standard_normal((size, lat.input_size)) * 10.0 ** rng.uniform(-3, 1, (size, lat.input_size))
    samples = SampleSet(vectors=xs)
    saved = objective.BLOCK_CELLS
    objective.BLOCK_CELLS = block * lat.num_nodes * lat.window_len
    try:
        got = compute_D1_D2(samples, lat, params, 3.0)
    finally:
        objective.BLOCK_CELLS = saved
    assert (got.d1, got.d2) == objective_one_at_a_time(samples, lat, params, 3.0)
    fw = forward(xs.reshape(-1), get_lattice(cfg, size), params)  # the whole set as one input
    for i, x in enumerate(xs):
        state = build_state(x, lat, params)
        for name, want in forward_one(x, lat, params).items():
            assert getattr(fw, name).reshape((size,) + want.shape)[i].tobytes() == want.tobytes(), name
            assert getattr(state, name).tobytes() == want.tobytes(), name


def test_a_block_names_the_dead_node_of_its_first_failing_sample():
    # sample 1 kills the neighbourhoods of nodes 3-7 and sample 2 those of
    # nodes 0-4; one sample at a time, sample 1 fails first, at node 3
    lat = get_lattice(LatticeConfig((1, 8), (1, 5), (1, 3), (1, 3)))
    params = NodeParams(weights=np.ones((8, 5)), biases=np.zeros(8), ref_vectors=np.zeros((8, 5)))
    xs = np.zeros((4, lat.input_size))
    xs[1, 6:] = -1e4  # every window from node 2 on reaches a cell below -745
    xs[2, :6] = -1e4
    samples = SampleSet(vectors=xs)
    with pytest.raises(DegenerateActivityError) as one_at_a_time:
        objective_one_at_a_time(samples, lat, params, 2.0)
    assert str(one_at_a_time.value) == "neighbourhood of node (0, 3) has zero activity"
    assert objective.BLOCK_CELLS // (8 * 5) >= 4  # the set is one block
    with pytest.raises(DegenerateActivityError) as block:
        compute_D1_D2(samples, lat, params, 2.0)
    assert str(block.value) == str(one_at_a_time.value)


def test_reused_block_buffers_leak_nothing_between_calls(monkeypatch):
    # one cached stacked lattice serves every block of 4: its buffers must
    # carry nothing from one call, sample set or parameter set to the next
    cfg = LatticeConfig(node_dims=(3, 4), input_window=(3, 5), neighbourhood_window=(3, 3),
                        leakage_window=(3, 1))
    lat = get_lattice(cfg)
    rng = np.random.default_rng(29)
    sets = [SampleSet(vectors=rng.uniform(-1, 1, (size, lat.input_size))) for size in (8, 7)]
    params = [random_params(lat, rng) for _ in range(2)]
    stacked = get_lattice(cfg, 4)
    buffers = stacked.buffers
    mk = lat.num_nodes * lat.window_len
    sequence = [(4, 0, 0), (4, 1, 1), (4, 0, 1), (4, 1, 0), (3, 1, 1), (3, 0, 0)]
    for block, s, p in sequence:  # BLOCK_CELLS changes once, from blocks of 4 to 3
        monkeypatch.setattr(objective, "BLOCK_CELLS", block * mk)
        got = compute_D1_D2(sets[s], lat, params[p], 3.0)
        assert (got.d1, got.d2) == objective_one_at_a_time(sets[s], lat, params[p], 3.0)
    assert get_lattice(cfg, 4) is stacked and stacked.buffers is buffers


def test_a_pass_given_block_buffers_overwrites_the_last_forward():
    # a Forward written into a stacked lattice's buffers holds until the
    # next pass given them; a pass without them keeps its own arrays
    cfg = LatticeConfig((1, 8), (1, 5), (1, 3), (1, 3))
    stacked = get_lattice(cfg, 2)
    rng = np.random.default_rng(7)
    params = random_params(get_lattice(cfg), rng)
    xs = rng.uniform(-1, 1, (2, stacked.input_size))
    own = forward(xs[0], stacked, params)
    first = forward(xs[0], stacked, params, stacked.buffers)
    kept = {name: getattr(first, name).tobytes() for name in ("x_windows", "post", "d_win")}
    assert all(getattr(own, name).tobytes() == want for name, want in kept.items())
    second = forward(xs[1], stacked, params, stacked.buffers)
    for name, want in kept.items():
        assert getattr(first, name) is getattr(second, name)
        assert getattr(first, name).tobytes() != want, name
        assert getattr(own, name).tobytes() == want, name


@pytest.mark.parametrize("size", [1, 64])
def test_a_wrong_sample_width_is_named_per_sample(size):
    # one sample and a block of samples at the stripe report the same
    # figures, not those of the block's stacked input
    lat = get_lattice(DEFAULTS.lattice)
    params = random_params(lat, np.random.default_rng(0))
    samples = SampleSet(vectors=np.zeros((size, lat.input_size - 1)))
    with pytest.raises(ValueError, match="^samples have 139 cells, the lattice's input has 140$"):
        compute_D1_D2(samples, lat, params, 2.0)


def test_block_path_refuses_a_non_finite_input():
    # SampleSet checks its vectors once; a NaN written afterwards must still
    # be refused where the block's pass starts, as Lattice.gather does
    lat = get_lattice(LatticeConfig((1, 8), (1, 5), (1, 3), (1, 3)))
    samples = SampleSet(vectors=np.zeros((3, lat.input_size)))
    samples.vectors[1, 4] = np.nan
    assert objective.BLOCK_CELLS // (lat.num_nodes * lat.window_len) >= samples.size  # one block
    params = NodeParams(weights=np.ones((8, 5)), biases=np.zeros(8), ref_vectors=np.zeros((8, 5)))
    with pytest.raises(ValueError, match="input vector must be finite"):
        compute_D1_D2(samples, lat, params, 2.0)


def test_heldout_objective_allocates_no_block_sized_array():
    # the default stripe run's held-out report, once its stacked lattice is
    # built: every block writes into that lattice's buffers, so the call
    # allocates less than one block's (b, M, K) windows
    state = new_state(DEFAULTS.lattice, DEFAULTS.training)
    samples = heldout_samples(DEFAULTS.lattice, DEFAULTS.training, DEFAULTS.heldout_size)
    lat, n = state.lattice, float(DEFAULTS.training.n)
    block = objective.BLOCK_CELLS // (lat.num_nodes * lat.window_len)
    assert block > 1 and samples.size > block
    first = compute_D1_D2(samples, lat, state.params, n)
    tracemalloc.start()
    try:
        second = compute_D1_D2(samples, lat, state.params, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second == first
    assert peak < block * lat.num_nodes * lat.window_len * 8
