"""Sinusoidal sample generation, subspace interleaving, normalisation."""

import math

import numpy as np
import pytest

from pmdnet.datagen import (
    TrainingConfig,
    compose_1d,
    gen_1d,
    gen_2d,
    parity_mask,
    sensor_kappa_limit,
    validate_kappa,
)
from pmdnet.lattice import LatticeConfig
from pmdnet.objective import SampleSet

from helpers import DegenerateDataError, normalize_set

STRIPE_CFG = LatticeConfig(node_dims=(1, 100), input_window=(1, 41),
                           neighbourhood_window=(1, 21), leakage_window=(1, 15))


def line_cfg(m2, i2=1):
    return LatticeConfig(node_dims=(1, m2), input_window=(1, i2),
                         neighbourhood_window=(1, 3), leakage_window=(1, 1))


def test_training_config_validation():
    good = dict(kappa=0.3, nu=0.1, s=2, n=400, epsilon=0.002, seed=0, updates=10)
    TrainingConfig(**good)
    for key, bad in [("kappa", 0.0), ("nu", -0.1), ("s", 3), ("s", 0),
                     ("n", 0), ("epsilon", 0.0), ("updates", -1), ("seed", -1),
                     ("kappa", math.inf), ("nu", math.nan), ("epsilon", math.inf)]:
        with pytest.raises(ValueError):
            TrainingConfig(**{**good, key: bad})


def test_compose_1d_quarter_wave():
    cfg = line_cfg(8)
    vals = compose_1d(cfg, math.pi / 2, (0.0,), np.zeros(8))
    expect = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0]
    assert np.allclose(vals.reshape(-1), expect, rtol=0, atol=1e-12)


def test_compose_1d_interleaves_phases_by_parity():
    cfg = line_cfg(6)
    kappa = 0.4
    a, b = 0.9, -1.3
    vals = compose_1d(cfg, kappa, (a, b), np.zeros(6)).reshape(-1)
    u = np.arange(6.0)
    expect = np.where(np.arange(6) % 2 == 0, np.sin(kappa * u + a), np.sin(kappa * u + b))
    assert np.allclose(vals, expect, rtol=0, atol=1e-15)


def test_compose_1d_adds_noise_verbatim():
    cfg = line_cfg(4)
    noise = np.array([0.5, -0.5, 0.25, 0.0])
    base = compose_1d(cfg, 0.3, (0.0,), np.zeros(4))
    got = compose_1d(cfg, 0.3, (0.0,), noise)
    assert np.allclose(got - base, noise.reshape(1, 4), rtol=0, atol=1e-15)


def test_gen_1d_rejects_2d_lattice():
    cfg = LatticeConfig(node_dims=(3, 4), input_window=(3, 3),
                        neighbourhood_window=(3, 3), leakage_window=(1, 1))
    tc = TrainingConfig(kappa=0.3)
    with pytest.raises(ValueError):
        gen_1d(tc, cfg, np.random.default_rng(0))


def test_gen_1d_bounds_and_shape():
    tc = TrainingConfig(kappa=0.3, nu=0.1, s=2)
    rng = np.random.default_rng(30)
    for _ in range(20):
        vals = gen_1d(tc, STRIPE_CFG, rng)
        assert vals.shape == STRIPE_CFG.input_dims
        assert np.abs(vals).max() <= 1.0 + tc.nu / 2.0


def test_gen_1d_two_subspaces_are_independent():
    # with a single shared phase adjacent quarter-wave cells are perfectly
    # anti-correlated two cells apart; with s = 2 the even and odd signals
    # decorrelate
    kappa = math.pi / 2
    cfg = line_cfg(12)
    rng = np.random.default_rng(31)
    draws = 10_000
    tc2 = TrainingConfig(kappa=kappa, nu=0.0, s=2)
    vals = np.stack([gen_1d(tc2, cfg, rng).reshape(-1) for _ in range(draws)])
    corr = np.corrcoef(vals[:, 0], vals[:, 1])[0, 1]
    assert abs(corr) < 0.05

    tc1 = TrainingConfig(kappa=kappa, nu=0.0, s=1)
    vals = np.stack([gen_1d(tc1, cfg, rng).reshape(-1) for _ in range(2000)])
    corr = np.corrcoef(vals[:, 0], vals[:, 2])[0, 1]
    assert corr < -0.99  # same phase, half period apart


def test_gen_1d_noise_stream_alignment():
    # noise is drawn even at nu = 0, so the same seed produces the same
    # sinusoid and the nu residual is exactly the bounded noise term
    tc0 = TrainingConfig(kappa=0.3, nu=0.0, s=2)
    tc1 = TrainingConfig(kappa=0.3, nu=0.1, s=2)
    for seed in range(5):
        a = gen_1d(tc0, STRIPE_CFG, np.random.default_rng(seed))
        b = gen_1d(tc1, STRIPE_CFG, np.random.default_rng(seed))
        resid = b - a
        assert np.abs(resid).max() <= 0.05 + 1e-15
        assert np.abs(resid).max() > 0.0


def test_gen_2d_axis_aligned_wave():
    class ScriptedRng:
        """Replays fixed values for the azimuth and phase draws, zeros for
        the noise array."""

        def __init__(self, scalars):
            self.scalars = list(scalars)

        def uniform(self, lo, hi, size=None):
            if size is None:
                return self.scalars.pop(0)
            return np.zeros(size)

    cfg = LatticeConfig(node_dims=(4, 5), input_window=(3, 3),
                        neighbourhood_window=(3, 3), leakage_window=(1, 1))
    tc = TrainingConfig(kappa=0.7, nu=0.0, s=1)
    vals = gen_2d(tc, cfg, ScriptedRng([0.0, 0.0]))  # azimuth 0, phase 0
    d1, d2 = cfg.input_dims
    expect = np.sin(0.7 * np.arange(d1, dtype=float))[:, None] * np.ones((1, d2))
    assert np.allclose(vals, expect, rtol=0, atol=1e-12)


def test_gen_2d_interleaves_and_bounds():
    cfg = LatticeConfig(node_dims=(6, 6), input_window=(3, 3),
                        neighbourhood_window=(3, 3), leakage_window=(1, 1))
    tc = TrainingConfig(kappa=0.7, nu=0.0, s=2)
    vals = gen_2d(tc, cfg, np.random.default_rng(32))
    assert vals.shape == cfg.input_dims
    assert np.abs(vals).max() <= 1.0
    # each parity's cells carry that subspace's own plane wave, drawn as
    # (azimuth, phase) for subspace 1 and then for subspace 2
    rng = np.random.default_rng(32)
    d1, d2 = cfg.input_dims
    u1, u2 = np.arange(d1)[:, None], np.arange(d2)[None, :]
    par = parity_mask(cfg)
    for k in (0, 1):
        theta, phase = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
        wave = np.sin(0.7 * (u1 * math.cos(theta) + u2 * math.sin(theta)) + phase)
        assert np.allclose(vals[par == k], wave[par == k], rtol=0, atol=1e-12)


def test_gen_2d_one_sensor_covers_every_cell():
    cfg = LatticeConfig(node_dims=(3, 4), input_window=(3, 3),
                        neighbourhood_window=(3, 3), leakage_window=(1, 1))
    vals = gen_2d(TrainingConfig(kappa=0.7, nu=0.0, s=1), cfg, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    theta, phase = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
    u1, u2 = np.arange(5)[:, None], np.arange(6)[None, :]
    wave = np.sin(0.7 * (u1 * math.cos(theta) + u2 * math.sin(theta)) + phase)
    assert np.allclose(vals, wave, rtol=0, atol=1e-12)


def test_parity_mask_chessboard():
    par = parity_mask(STRIPE_CFG)
    assert par.shape == STRIPE_CFG.input_dims
    assert par[0, 0] == 0
    assert par[0, 1] == 1
    cfg2 = LatticeConfig(node_dims=(4, 4), input_window=(3, 5),
                         neighbourhood_window=(3, 3), leakage_window=(1, 1))
    par2 = parity_mask(cfg2)
    assert par2[3, 4] == 1  # odd coordinate sum: second subspace
    assert set(np.unique(par2)) == {0, 1}
    assert np.array_equal(par2[1:, :], 1 - par2[:-1, :])


def test_validate_kappa_cases():
    def msgs(kappa, i2):
        cfg = LatticeConfig(node_dims=(1, 50), input_window=(1, i2),
                            neighbourhood_window=(1, 3), leakage_window=(1, 1))
        return validate_kappa(TrainingConfig(kappa=kappa), cfg)

    assert msgs(0.3, 41) == []                     # 1.957 cycles, dev 0.043
    assert msgs(2 * math.pi * 2 / 41, 41) == []    # exactly 2 cycles
    assert len(msgs(0.35, 41)) == 1                # 2.284 cycles, dev 0.284
    assert msgs(0.7, 41) == []                     # 4.57 cycles: ratio >= 4
    assert msgs(0.35, 1) == []                     # pointlike window skipped


def test_validate_kappa_warns_strictly_above_the_sensor_limit():
    stripe = LatticeConfig(node_dims=(1, 50), input_window=(1, 41),
                           neighbourhood_window=(1, 3), leakage_window=(1, 1))
    board = LatticeConfig(node_dims=(4, 4), input_window=(9, 9),
                          neighbourhood_window=(3, 3), leakage_window=(1, 1))

    def sensor_warnings(kappa, s, cfg):
        return [w for w in validate_kappa(TrainingConfig(kappa=kappa, s=s), cfg) if "per-sensor" in w]

    # the decorrelation test's kappa = pi/2 at 1D s = 2 is at the limit
    assert sensor_kappa_limit(TrainingConfig(kappa=0.3, s=2), stripe) == (math.pi / 2, "pi/2")
    assert sensor_warnings(math.pi / 2, 2, stripe) == []
    above = math.nextafter(math.pi / 2, 4.0)
    assert sensor_warnings(above, 2, stripe) == [
        f"kappa = {above:.4f} exceeds pi/2 = 1.5708, the per-sensor limit with s = 2; "
        f"each sensor's cells alias it to a smaller wavenumber"]
    assert sensor_warnings(above, 1, stripe) == []  # one sensor owns every cell
    # the chessboard: |k1| + |k2| <= pi, first left at 45 degrees
    assert sensor_kappa_limit(TrainingConfig(kappa=0.3, s=2), board) == (math.pi / math.sqrt(2),
                                                                         "pi/sqrt(2)")
    assert sensor_warnings(math.pi / math.sqrt(2), 2, board) == []
    assert len(sensor_warnings(math.nextafter(math.pi / math.sqrt(2), 4.0), 2, board)) == 1
    assert sensor_warnings(math.pi, 1, board) == []
    # neither bench config warns at all: the stripe (kappa = 0.3) and 40 x 40
    # (kappa = 2 pi / 9), both at s = 2
    assert validate_kappa(TrainingConfig(kappa=0.3, s=2),
                          LatticeConfig((1, 100), (1, 41), (1, 21), (1, 15))) == []
    assert validate_kappa(TrainingConfig(kappa=2 * math.pi / 9, s=2),
                          LatticeConfig((40, 40), (9, 9), (7, 7), (5, 5))) == []


def test_validate_kappa_checks_both_axes_in_2d():
    cfg = LatticeConfig(node_dims=(5, 5), input_window=(9, 41),
                        neighbourhood_window=(3, 3), leakage_window=(1, 1))
    out = validate_kappa(TrainingConfig(kappa=0.3), cfg)
    assert len(out) == 1  # i1 = 9: 0.43 cycles; i2 = 41 is fine
    assert "i1" in out[0]


def test_normalize_set_maps_extremes():
    s = SampleSet(vectors=np.array([[0.0, 1.0], [2.0, 1.0]]))
    out = normalize_set(s)
    assert np.allclose(out.vectors, [[-1.0, 0.0], [1.0, 0.0]], rtol=0, atol=1e-15)
    again = normalize_set(out)
    assert np.allclose(again.vectors, out.vectors, rtol=0, atol=1e-15)


def test_normalize_set_exact_endpoints():
    s = SampleSet(vectors=np.array([[-0.05, 0.3], [1.05, 0.5]]))
    out = normalize_set(s)
    assert out.vectors.min() == -1.0
    assert out.vectors.max() == 1.0


def test_normalize_set_rejects_constant():
    with pytest.raises(DegenerateDataError):
        normalize_set(SampleSet(vectors=np.full((3, 2), 0.7)))


def test_generation_is_seed_deterministic():
    tc = TrainingConfig(kappa=0.3, nu=0.1, s=2)
    a = gen_1d(tc, STRIPE_CFG, np.random.default_rng(7))
    b = gen_1d(tc, STRIPE_CFG, np.random.default_rng(7))
    assert np.array_equal(a, b)
    cfg2 = LatticeConfig(node_dims=(4, 4), input_window=(3, 3),
                         neighbourhood_window=(3, 3), leakage_window=(1, 1))
    c = gen_2d(tc, cfg2, np.random.default_rng(8))
    d = gen_2d(tc, cfg2, np.random.default_rng(8))
    assert np.array_equal(c, d)
