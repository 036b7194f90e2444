"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test is independent and prints one pass/fail line under pytest -v.
Stated runtime budgets are asserted with perf_counter around the whole body.
"""

import math
import time

import numpy as np
import pytest

from pmdnet.activation import NodeParams, localized_posterior_rows
from pmdnet.analytic import SolutionType, optimal_type, solution_value
from pmdnet.cli import main
from pmdnet.datagen import TrainingConfig
from pmdnet.gradients import build_state, finite_difference_check
from pmdnet.lattice import LatticeConfig, get_lattice
from pmdnet.objective import (
    SampleSet,
    bound_from_posterior,
    compute_D_exact,
    solve_stationary_refvectors,
)
from pmdnet.trainer import (
    DominanceProfile,
    checkpoint_load,
    checkpoint_save,
    dominance,
    heldout_objective,
    heldout_samples,
    new_state,
    run_training,
    stripe_period,
)

from helpers import dense_operator, kernels, pmd_posterior
from oracle_expanded import expanded_quantities, random_instance

STRIPE_LATTICE = LatticeConfig(node_dims=(1, 100), input_window=(1, 41),
                               neighbourhood_window=(1, 21), leakage_window=(1, 15))


def stripe_training(seed, updates=3200):
    return TrainingConfig(kappa=0.3, nu=0.1, s=2, n=400, epsilon=0.002,
                          seed=seed, updates=updates)


def test_criterion_1(tmp_path, capsys):
    """Closed-form model: crossover points, exact ties, CLI report; < 1 s."""
    t0 = time.perf_counter()

    for m in range(4, 20):
        assert optimal_type(m, 1.0).best is SolutionType.SINGLE
    for m in range(20, 101):
        assert optimal_type(m, 1.0).best is SolutionType.JOINT

    tie = abs(solution_value(SolutionType.SINGLE, 12.0, 2.0)
              - solution_value(SolutionType.SPLIT, 12.0, 2.0))
    assert tie <= 1e-9
    for m in range(4, 13):
        assert SolutionType.SINGLE in optimal_type(m, 2.0).ties
    for m in range(13, 30):
        assert optimal_type(m, 2.0).best is SolutionType.SPLIT
    for m in range(30, 101):
        assert optimal_type(m, 2.0).best is SolutionType.JOINT

    tie = abs(solution_value(SolutionType.SINGLE, 8.0, math.inf)
              - solution_value(SolutionType.SPLIT, 8.0, math.inf))
    assert tie <= 1e-15
    for m in range(4, 201):
        assert SolutionType.JOINT not in optimal_type(m, math.inf).ties

    assert main(["phase", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "n=1: type1 M=4..19; type2 M=20..100; type3 never" in out
    assert "n=2: type1 M=4..12; type2 M=30..100; type3 M=12..29" in out
    assert "n=inf: type1 M=4..8; type2 never; type3 M=8..100" in out
    assert (tmp_path / "phase_boundaries.csv").exists()

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f} s"


def test_criterion_2():
    """Posterior normalisation: 1000 random lattices and activities; < 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(1000):
        m1 = int(rng.integers(1, 21))
        m2 = int(rng.integers(1, 21))
        w1 = int(rng.integers(0, 4)) * 2 + 1
        w2 = int(rng.integers(0, 4)) * 2 + 1
        cfg = LatticeConfig(node_dims=(m1, m2), input_window=(1, 1),
                            neighbourhood_window=(w1, w2), leakage_window=(1, 1))
        q = rng.uniform(0.05, 5.0, m1 * m2)
        post = pmd_posterior(q, get_lattice(cfg))
        assert post.min() >= 0.0
        assert abs(post.sum() - 1.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f} s"


def test_criterion_3():
    """Every analytic derivative within 1e-5 of finite differences on 20
    truncated-window instances with nontrivial leakage; < 30 s."""
    t0 = time.perf_counter()
    shapes = [
        ((1, 5), (1, 3), (1, 3), (1, 3)),
        ((1, 6), (1, 3), (1, 3), (1, 3)),
        ((1, 8), (1, 1), (1, 3), (1, 5)),
        ((2, 3), (1, 1), (3, 3), (3, 3)),
        ((2, 4), (1, 1), (3, 3), (1, 3)),
    ]
    n_values = (1.0, 2.0, 5.0)
    for idx in range(20):
        dims, win, nbr, leak = shapes[idx % len(shapes)]
        cfg = LatticeConfig(node_dims=dims, input_window=win,
                            neighbourhood_window=nbr, leakage_window=leak)
        lat = get_lattice(cfg)
        assert lat.num_nodes <= 8 and lat.input_size <= 8
        rng = np.random.default_rng([3, idx])
        m, k = lat.num_nodes, lat.window_len
        params = NodeParams(weights=rng.uniform(-0.3, 0.3, (m, k)),
                            biases=rng.uniform(-0.2, 0.2, m),
                            ref_vectors=rng.uniform(-0.5, 0.5, (m, k)))
        samples = SampleSet(vectors=rng.uniform(-1, 1, (2, lat.input_size)))
        report = finite_difference_check(samples, lat, params, n_values[idx % len(n_values)])
        assert report.max_rel_error <= 1e-5, report.format_text()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f} s"


def test_criterion_4():
    """Exact distortion equals D1 + D2 - D3 with D3 >= 0 on 10 brute-force
    instances, so D1 + D2 really is an upper bound; < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for idx in range(10):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        s = int(rng.integers(3, 21))
        dim = int(rng.integers(1, 4))
        samples = SampleSet(vectors=rng.uniform(-1, 1, (s, dim)))
        post = rng.uniform(0.05, 1.0, (s, m))
        post /= post.sum(axis=1, keepdims=True)
        ex = compute_D_exact(samples, post, n=n)
        scale = max(1.0, abs(ex.distortion))
        assert abs(ex.distortion - (ex.d1 + ex.d2 - ex.d3)) <= 1e-10 * scale
        assert ex.d3 >= -1e-12 * scale
        assert ex.distortion <= ex.d1 + ex.d2 + 1e-10 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.2f} s"


def test_criterion_5():
    """Stationary solver: zero finite-difference gradient, and the two-ring
    construction reproduces the 2n/(n+1) amplification."""
    rng = np.random.default_rng(5)
    for n in (1.0, 2.5, 7.0):
        samples = SampleSet(vectors=rng.uniform(-1, 1, (15, 3)))
        post = rng.uniform(0.05, 1.0, (15, 6))
        post /= post.sum(axis=1, keepdims=True)
        sol = solve_stationary_refvectors(samples, post, n=n)
        step = 1e-4
        for y in range(6):
            for c in range(3):
                up = sol.copy(); up[y, c] += step
                dn = sol.copy(); dn[y, c] -= step
                fd = (bound_from_posterior(samples, post, up, n).total
                      - bound_from_posterior(samples, post, dn, n).total) / (2 * step)
                assert abs(fd) <= 1e-8

    # two rings of 4 nodes per independent angle, posterior 0.5 on the
    # nearest node of each ring, inputs on a 12 x 12 angle grid
    g = 12
    ang = 2 * np.pi * np.arange(g) / g
    x = np.array([[np.cos(a), np.sin(a), np.cos(b), np.sin(b)]
                  for a in ang for b in ang])
    owner = ((ang / (np.pi / 2) + 0.5).astype(int)) % 4
    post = np.zeros((g * g, 8))
    k = 0
    for i in range(g):
        for j in range(g):
            post[k, owner[i]] += 0.5
            post[k, 4 + owner[j]] += 0.5
            k += 1
    samples = SampleSet(vectors=x)
    weights = post / (post.shape[0] * post.mean(axis=0))
    centroids = weights.T @ x
    att = np.abs(centroids) > 0.1
    for n in (2.0, 5.0, 400.0):
        sol = solve_stationary_refvectors(samples, post, n=n)
        scale = 2.0 * n / (n + 1.0)
        assert np.abs(sol[att] / centroids[att] - scale).max() <= 1e-3
        assert np.abs(sol[~att]).max() <= 1e-10


@pytest.fixture(scope="module")
def stripe_runs():
    """The five default stripe runs that criterion 6 and the stripe-period
    test read, trained once: per seed, the held-out objective at steps 100
    and 3200 and the dominance profile at step 3200."""
    runs = []
    for seed in range(5):
        tc = stripe_training(seed)
        held = heldout_samples(STRIPE_LATTICE, tc, 64)
        st = new_state(STRIPE_LATTICE, tc)
        run_training(st, 100)
        early = heldout_objective(st, held).total
        run_training(st, 3100)  # fresh policy: segments match one long run
        runs.append((early, heldout_objective(st, held).total, dominance(st)))
    return runs


def test_criterion_6(stripe_runs):
    """Interleaved 1D run forms dominance stripes with period 15..27 on the
    interior for at least 3 of 5 seeds, while the held-out objective falls
    in median from step 100 to step 3200."""
    hits = 0
    periods = []
    early = []
    late = []
    for first, last, prof in stripe_runs:
        early.append(first)
        late.append(last)
        signal = (prof.a1 - prof.a2)[10:90]
        signal = signal - signal.mean()
        spectrum = np.abs(np.fft.rfft(signal))
        peak = int(np.argmax(spectrum[1:])) + 1
        period = signal.size / peak
        periods.append(period)
        if 15.0 <= period <= 27.0:
            hits += 1
    assert hits >= 3, f"stripe periods {periods}"
    assert np.median(late) < np.median(early)


def test_stripe_period_is_criterion_6s_formula(stripe_runs):
    # trainer.stripe_period is the period criterion 6 computes for itself
    for seed, (_, _, prof) in enumerate(stripe_runs):
        signal = (prof.a1 - prof.a2)[10:90]
        signal = signal - signal.mean()
        spectrum = np.abs(np.fft.rfft(signal))
        peak = int(np.argmax(spectrum[1:])) + 1
        assert stripe_period(prof) == signal.size / peak, seed
    with pytest.raises(ValueError, match="at least 2 interior nodes"):
        stripe_period(DominanceProfile(a1=np.zeros(1), a2=np.zeros(1)))


def test_criterion_7(tmp_path):
    """Bit-identical checkpoints: independent reruns agree and an
    interrupted run resumes to the same bytes."""
    tc = stripe_training(1, updates=60)

    a = run_training(new_state(STRIPE_LATTICE, tc), 60)
    checkpoint_save(a, tmp_path / "a.ckpt")
    b = run_training(new_state(STRIPE_LATTICE, tc), 60)
    checkpoint_save(b, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    c = run_training(new_state(STRIPE_LATTICE, tc), 30)
    checkpoint_save(c, tmp_path / "mid.ckpt")
    resumed = checkpoint_load(tmp_path / "mid.ckpt")
    run_training(resumed, 30)
    checkpoint_save(resumed, tmp_path / "c.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "c.ckpt").read_bytes()


def test_criterion_8():
    """Matrix shortcuts equal the fully expanded sums on 50 random
    instances: both coherent-residual renderings and all four kernels."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        cfg, params, x = random_instance(rng)
        lat = get_lattice(cfg)
        st = build_state(x, lat, params)
        # second rendering: the column sums of P L d, with P and d built
        # here in full because the state keeps neither
        leakage = dense_operator(lat.leakage)
        pld = localized_posterior_rows(st.q, lat) @ (leakage @ lat.scatter_rows(st.d_win))
        assert np.abs(st.dbar - pld.sum(axis=0)).max() <= 1e-12

        oq = expanded_quantities(x, cfg, params, 2.0)
        assert np.abs(oq["dbar"] - oq["dbar_alt"]).max() <= 1e-12
        assert np.abs(st.dbar - oq["dbar"]).max() <= 1e-12 * max(1.0, np.abs(oq["dbar"]).max())
        f1, f2, g1, g2 = kernels(st)
        f1 = lat.scatter_rows(f1)
        for y in range(lat.num_nodes):
            # f2 = rho_y dbar exists only on node y's window
            for got, want in ((f1[y], oq["f1"][y]), (f2[y], oq["f2"][y][lat.win_idx[y]])):
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            for got, want in ((g1[y], oq["g1"][y]), (g2[y], oq["g2"][y])):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
