"""Activities and the posterior constructions built from them."""

import math

import numpy as np
import pytest

from pmdnet.activation import (
    DegenerateActivityError,
    NodeParams,
    activities,
    localized_posterior_rows,
    stable_sigmoid,
    window_denominators,
)
from pmdnet.lattice import LatticeConfig, build_leakage, get_lattice
from pmdnet.objective import forward

from helpers import activity_sigmoid, dense_operator, localized_posterior, pmd_posterior, simple_posterior


def cfg_1d(m, w, i=1, l=1):
    return LatticeConfig(node_dims=(1, m), input_window=(1, i),
                         neighbourhood_window=(1, w), leakage_window=(1, l))


def lat_1d(m, w, i=1, l=1):
    return get_lattice(cfg_1d(m, w, i, l))


def test_sigmoid_zero_logit():
    assert stable_sigmoid(np.array([0.0]))[0] == 0.5
    assert activity_sigmoid(np.zeros(3), np.zeros(3), 0.0) == 0.5


def test_sigmoid_returns_an_array_for_any_input():
    # one return type: a 0-d input gives a 0-d array, not a float
    out = stable_sigmoid(0.0)
    assert isinstance(out, np.ndarray) and out.shape == () and out == 0.5


def test_sigmoid_saturation_no_overflow():
    vals = stable_sigmoid(np.array([-1e4, -50.0, 50.0, 1e4]))
    assert vals[0] == 0.0 or vals[0] < 1e-300
    assert vals[-1] == 1.0
    assert np.all(np.isfinite(vals))


def test_sigmoid_underflow_leaves_a_neighbourhood_dead():
    # below a logit of about -745 exp underflows and the sigmoid reads
    # exactly 0, so the forward pass meets a zero posterior denominator
    lat = get_lattice(LatticeConfig((1, 8), (1, 5), (1, 3), (1, 3)))
    params = NodeParams(weights=np.zeros((8, 5)), biases=np.full(8, -800.0),
                        ref_vectors=np.zeros((8, 5)))
    x = np.zeros(lat.input_size)
    assert not activities(lat.gather(x), params).any()
    with pytest.raises(DegenerateActivityError, match="has zero activity"):
        forward(x, lat, params)


def test_sigmoid_log3_value():
    got = activity_sigmoid(np.array([math.log(3.0), 7.0]), np.array([1.0, 0.0]), 0.0)
    assert abs(got - 0.75) <= 1e-15


def test_simple_posterior_uniform_and_direct():
    assert np.allclose(simple_posterior(np.full(5, 2.2)), 0.2, rtol=0, atol=1e-15)
    got = simple_posterior(np.array([1.0, 3.0]))
    assert np.allclose(got, [0.25, 0.75], rtol=0, atol=1e-15)


def test_simple_posterior_threshold_cases():
    got = simple_posterior(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateActivityError):
        simple_posterior(np.zeros(4))


def test_localized_posterior_cases():
    lat = lat_1d(5, 1)
    got = localized_posterior(np.array([4.0, 1.0, 1.0, 1.0, 1.0]), lat, (0, 0))
    assert got == {(0, 0): 1.0}

    lat = lat_1d(21, 41)  # window covers the whole lattice
    got = localized_posterior(np.full(21, 3.3), lat, (0, 10))
    assert len(got) == 21
    assert all(abs(v - 1 / 21) <= 1e-15 for v in got.values())

    lat = lat_1d(3, 3)
    got = localized_posterior(np.array([1.0, 2.0, 3.0]), lat, (0, 1))
    assert abs(got[(0, 0)] - 1 / 6) <= 1e-15
    assert abs(got[(0, 1)] - 2 / 6) <= 1e-15
    assert abs(got[(0, 2)] - 3 / 6) <= 1e-15


def test_pmd_matches_hand_computed_four_nodes():
    # four nodes, truncated windows of three: the double sum evaluates to
    # (1/8, 11/36, 53/168, 16/63), which sums to exactly 1
    lat = lat_1d(4, 3)
    got = pmd_posterior(np.array([1.0, 2.0, 3.0, 4.0]), lat)
    expect = np.array([1 / 8, 11 / 36, 53 / 168, 16 / 63])
    assert np.allclose(got, expect, rtol=0, atol=1e-15)
    assert abs(got.sum() - 1.0) <= 1e-15


def test_pmd_uniform_activity_gives_uniform_posterior():
    # symmetry argument needs untruncated windows: cover the lattice, or size 1
    got = pmd_posterior(np.full(9, 0.7), lat_1d(9, 17))
    assert np.allclose(got, 1 / 9, rtol=0, atol=1e-14)
    got = pmd_posterior(np.full(9, 0.7), lat_1d(9, 1))
    assert np.allclose(got, 1 / 9, rtol=0, atol=1e-14)


def test_pmd_full_window_reduces_to_simple():
    rng = np.random.default_rng(5)
    q = rng.uniform(0.1, 2.0, 7)
    assert np.allclose(pmd_posterior(q, lat_1d(7, 15)), simple_posterior(q), rtol=0, atol=1e-14)


def test_pmd_scale_invariance():
    lat = lat_1d(10, 5)
    rng = np.random.default_rng(6)
    q = rng.uniform(0.2, 3.0, 10)
    a = pmd_posterior(q, lat)
    b = pmd_posterior(3.7 * q, lat)
    assert np.allclose(a, b, rtol=0, atol=1e-14)


def test_pmd_normalization_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m1 = int(rng.integers(1, 8))
        m2 = int(rng.integers(1, 12))
        w1 = int(rng.integers(0, 3)) * 2 + 1
        w2 = int(rng.integers(0, 4)) * 2 + 1
        cfg = LatticeConfig((m1, m2), (1, 1), (w1, w2), (1, 1))
        q = rng.uniform(0.01, 5.0, m1 * m2)
        assert abs(pmd_posterior(q, get_lattice(cfg)).sum() - 1.0) <= 1e-12


def test_pmd_degenerate_neighbourhood_is_error():
    lat = lat_1d(4, 3)
    with pytest.raises(DegenerateActivityError):
        window_denominators(np.array([0.0, 0.0, 1.0, 1.0]), lat)
    with pytest.raises(DegenerateActivityError):
        pmd_posterior(np.array([0.0, 0.0, 1.0, 1.0]), lat)


def test_localized_rows_are_stochastic():
    rng = np.random.default_rng(8)
    q = rng.uniform(0.1, 1.0, 12)
    rows = localized_posterior_rows(q, lat_1d(12, 5))
    sums = np.asarray(rows.sum(axis=1)).ravel()
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    # row support matches the neighbourhood sets
    dense = rows.toarray()
    for y in range(12):
        lo, hi = max(0, y - 2), min(12, y + 3)
        assert np.all(dense[y, lo:hi] > 0)
        outside = np.delete(dense[y], np.arange(lo, hi))
        assert np.all(outside == 0)


def test_apply_leakage_identity_and_mixing():
    lk = build_leakage(cfg_1d(6, 3, l=1))
    post = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    assert np.array_equal(lk.apply_transpose(post), post)

    lk = build_leakage(cfg_1d(6, 3, l=15))  # the leakage window covers everything: total mixing
    got = lk.apply_transpose(post)
    assert np.allclose(got, 1 / 6, rtol=0, atol=1e-15)


def test_apply_leakage_delta_recovers_row():
    lk = build_leakage(cfg_1d(9, 3, l=5))
    delta = np.zeros(9)
    delta[3] = 1.0
    assert np.allclose(lk.apply_transpose(delta), dense_operator(lk)[3], rtol=0, atol=1e-15)


def test_apply_leakage_preserves_distribution():
    lk = build_leakage(cfg_1d(11, 3, l=7))
    rng = np.random.default_rng(9)
    post = rng.uniform(0, 1, 11)
    post /= post.sum()
    got = lk.apply_transpose(post)
    assert np.all(got >= 0)
    assert abs(got.sum() - 1.0) <= 1e-12


def test_activities_match_per_node_evaluation():
    cfg = LatticeConfig((2, 3), (3, 3), (1, 3), (1, 1))
    lat = get_lattice(cfg)
    rng = np.random.default_rng(10)
    params = NodeParams(weights=rng.normal(size=(6, 9)),
                        biases=rng.normal(size=6),
                        ref_vectors=np.zeros((6, 9)))
    x = rng.uniform(-1, 1, lat.input_size)
    got = activities(lat.gather(x), params)
    wins = lat.gather(x)
    for k in range(6):
        expect = activity_sigmoid(wins[k], params.weights[k], params.biases[k])
        assert abs(got[k] - expect) <= 1e-15


def test_node_params_validation():
    with pytest.raises(ValueError):
        NodeParams(weights=np.zeros((3, 2)), biases=np.zeros(4), ref_vectors=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        NodeParams(weights=np.full((2, 2), np.nan), biases=np.zeros(2), ref_vectors=np.zeros((2, 2)))
