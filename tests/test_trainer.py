"""Online trainer: rate adaptation, determinism, checkpoint format."""

import dataclasses
import hashlib
import json
import struct
import warnings

import numpy as np
import pytest

from pmdnet.activation import NodeParams
from pmdnet.cli import (
    DEFAULTS,
    GRADCHECK_DEFAULTS,
    RESUMABLE,
    SECTIONS,
    config_hash,
    load_run_config,
    main,
)
from pmdnet.datagen import TrainingConfig, parity_mask
from pmdnet.gradients import GradientSet, gradient_set_from_states, build_state
from pmdnet.lattice import LatticeConfig, get_lattice
from pmdnet.trainer import (
    RATE_CEILING,
    STREAMS,
    CheckpointError,
    TrainingDivergedError,
    adapt_rates,
    checkpoint_load,
    checkpoint_save,
    data_scale,
    dominance,
    dominance_arrays,
    heldout_objective,
    heldout_samples,
    init_params,
    new_state,
    next_vector,
    run_training,
    stream,
    train_step,
)

SMALL_CFG = LatticeConfig(node_dims=(1, 12), input_window=(1, 7),
                          neighbourhood_window=(1, 5), leakage_window=(1, 3))
SMALL_TC = TrainingConfig(kappa=2 * np.pi / 7, nu=0.1, s=2, n=5,
                          epsilon=0.01, seed=3, updates=0)


def zero_grads(m, k):
    return GradientSet(bias_total=np.zeros(m), weight_total=np.zeros((m, k)),
                       ref_total=np.zeros((m, k)))


def test_init_params_ranges_and_determinism():
    lat = get_lattice(SMALL_CFG)
    a = init_params(lat, np.random.default_rng(5))
    b = init_params(lat, np.random.default_rng(5))
    assert np.array_equal(a.weights, b.weights)
    assert np.abs(a.weights).max() <= 0.1
    assert np.all(a.biases == 0.0)
    assert np.all(a.ref_vectors == 0.0)


def test_each_stream_keeps_its_id():
    # the ids every earlier output was drawn with; a changed id changes them all
    ids = {"init": 0, "data": 1, "heldout": 2, "gradcheck_params": 3, "gradcheck_samples": 4,
           "bound_oracle": 5}
    assert STREAMS == ids
    for seed in (0, 7, 1234):
        for name, stream_id in ids.items():
            want = np.random.default_rng([seed, stream_id]).bit_generator.state
            assert stream(seed, name).bit_generator.state == want


def test_new_state_rejects_bad_policy():
    with pytest.raises(ValueError):
        new_state(SMALL_CFG, SMALL_TC, seed_policy="resume")


def test_data_scale():
    assert data_scale(TrainingConfig(kappa=0.3, nu=0.0)) == 1.0
    assert data_scale(TrainingConfig(kappa=0.3, nu=0.1)) == pytest.approx(2.0 / 2.1, abs=0)


def test_next_vector_is_conditioned():
    st = new_state(SMALL_CFG, SMALL_TC)
    for _ in range(10):
        assert np.abs(next_vector(st)).max() <= 1.0 + 1e-15


def test_adapt_rates_worked_example():
    # spread 2 and mean gradient 0.01 at epsilon 0.002 give rate 0.4 and a
    # mean applied change of 0.004 = epsilon * spread
    m, k = 2, 1
    params = NodeParams(weights=np.zeros((m, k)), biases=np.array([-1.0, 1.0]),
                        ref_vectors=np.zeros((m, k)))
    gs = zero_grads(m, k)
    gs.bias_total[:] = 0.01
    rates, diams, means = adapt_rates(params, gs, 0.002)
    assert means.tolist() == [0.01, 0.0, 0.0]
    assert diams[0] == 2.0
    assert rates[0] == pytest.approx(0.4, rel=1e-9)
    assert rates[0] * 0.01 == pytest.approx(0.004, rel=1e-9)
    # zero-spread types fall back to the unit floor
    assert diams[1] == 1.0 and diams[2] == 1.0


def test_adapt_rates_wide_spread_reported():
    params = NodeParams(weights=np.array([[0.0], [0.0]]), biases=np.array([-3.0, 5.0]),
                        ref_vectors=np.array([[2.0], [-2.0]]))
    rates, diams, _means = adapt_rates(params, zero_grads(2, 1), 0.002)
    assert diams.tolist() == [8.0, 1.0, 4.0]
    # zero gradients: the tiny regulariser keeps rates finite
    assert np.all(np.isfinite(rates))


def test_adapt_rates_caps_finite_rates_only():
    # spread 1 over mean |gradient| 1e-6 asks for rate 2000 at epsilon 0.002
    params = NodeParams(weights=np.zeros((2, 1)), biases=np.zeros(2), ref_vectors=np.zeros((2, 1)))
    gs = zero_grads(2, 1)
    gs.bias_total[:] = 1e-6
    gs.weight_total[:] = 0.5
    rates, _diams, _means = adapt_rates(params, gs, 0.002)
    assert rates[0] == RATE_CEILING
    assert rates[1] == 0.002 / (0.5 + 1e-12)  # below the ceiling: the paper's rule
    # a rate that overflows is not capped, so the step reports it
    rates, _diams, _means = adapt_rates(params, gs, 1e308)
    assert rates[0] == np.inf and rates[1] == np.inf


def test_default_run_continued_to_8000_updates_stays_finite():
    # without the rate ceiling the rates run away after about 4000 updates and
    # this run fails at a neighbourhood with zero activity
    st = new_state(DEFAULTS.lattice, dataclasses.replace(DEFAULTS.training, updates=8000))
    run_training(st, 8000)
    assert st.step == 8000
    for arr in (st.params.weights, st.params.biases, st.params.ref_vectors):
        assert np.isfinite(arr).all()
    assert st.rates.max() <= RATE_CEILING


def test_cold_start_diameters_are_unit():
    st = new_state(SMALL_CFG, SMALL_TC)
    run_training(st, 1)
    assert st.diameters.tolist() == [1.0, 1.0, 1.0]
    assert st.step == 1


def test_zero_gradient_step_changes_nothing_but_step():
    cfg = LatticeConfig(node_dims=(1, 1), input_window=(1, 3),
                        neighbourhood_window=(1, 1), leakage_window=(1, 1))
    st = new_state(cfg, SMALL_TC)
    x = np.array([[0.3, -0.2, 0.5]])
    st.params.ref_vectors[:] = st.lattice.gather(x.reshape(-1))
    before = (st.params.weights.copy(), st.params.biases.copy(), st.params.ref_vectors.copy())
    train_step(st, x)
    assert st.step == 1
    assert np.array_equal(st.params.weights, before[0])
    assert np.array_equal(st.params.biases, before[1])
    assert np.array_equal(st.params.ref_vectors, before[2])


def test_rate_rule_controls_mean_step_size():
    st = new_state(SMALL_CFG, SMALL_TC)
    run_training(st, 5)  # move off the cold start
    for _ in range(5):
        x = next_vector(st)
        lat = st.lattice
        grads = gradient_set_from_states([build_state(x, lat, st.params)], lat, float(st.tcfg.n))
        before = (st.params.biases.copy(), st.params.weights.copy(),
                  st.params.ref_vectors.copy())
        train_step(st, x)
        after = (st.params.biases, st.params.weights, st.params.ref_vectors)
        totals = (grads.bias_total, grads.weight_total, grads.ref_total)
        for i in range(3):
            mean_step = float(np.abs(after[i] - before[i]).mean())
            g = float(np.abs(totals[i]).mean())
            expect = st.tcfg.epsilon * st.diameters[i] * g / (g + 1e-12)
            assert mean_step == pytest.approx(expect, rel=1e-9)
            assert mean_step <= st.tcfg.epsilon * st.diameters[i] * (1 + 1e-12)


def test_training_is_seed_deterministic():
    a = run_training(new_state(SMALL_CFG, SMALL_TC), 40)
    b = run_training(new_state(SMALL_CFG, SMALL_TC), 40)
    assert np.array_equal(a.params.weights, b.params.weights)
    assert np.array_equal(a.params.biases, b.params.biases)
    assert np.array_equal(a.params.ref_vectors, b.params.ref_vectors)
    assert a.data_rng.bit_generator.state == b.data_rng.bit_generator.state


def test_restart_policy_replays_stream():
    st = new_state(SMALL_CFG, SMALL_TC, seed_policy="restart")
    run_training(st, 0)
    v1 = next_vector(st)
    run_training(st, 0)  # segment boundary: stream restarts
    v2 = next_vector(st)
    assert np.array_equal(v1, v2)

    st = new_state(SMALL_CFG, SMALL_TC, seed_policy="fresh")
    run_training(st, 0)
    v1 = next_vector(st)
    run_training(st, 0)
    v2 = next_vector(st)
    assert not np.array_equal(v1, v2)


def test_heldout_stream_does_not_touch_training_stream():
    a = new_state(SMALL_CFG, SMALL_TC)
    b = new_state(SMALL_CFG, SMALL_TC)
    _ = next_vector(a)
    _ = next_vector(b)
    heldout_samples(SMALL_CFG, SMALL_TC, 16)  # independent stream
    assert np.array_equal(next_vector(a), next_vector(b))


def test_heldout_samples_shape_and_determinism():
    s1 = heldout_samples(SMALL_CFG, SMALL_TC, 8)
    s2 = heldout_samples(SMALL_CFG, SMALL_TC, 8)
    assert s1.vectors.shape == (8, get_lattice(SMALL_CFG).input_size)
    assert np.array_equal(s1.vectors, s2.vectors)
    assert np.abs(s1.vectors).max() <= 1.0


def test_dominance_zero_refs():
    st = new_state(SMALL_CFG, SMALL_TC)
    prof = dominance(st)
    assert np.all(prof.a1 == 0.0)
    assert np.all(prof.a2 == 0.0)
    assert np.all(prof.a1 - prof.a2 == 0.0)


def test_dominance_parity_indicator_refs():
    lat = get_lattice(SMALL_CFG)
    par = parity_mask(SMALL_CFG)
    par_win = par.reshape(-1)[lat.win_idx]
    params = init_params(lat, np.random.default_rng(0))
    params.ref_vectors[:] = (par_win == 0).astype(float)
    prof = dominance_arrays(params, lat, par)
    assert np.allclose(prof.a1, 1.0, rtol=0, atol=1e-15)
    assert np.allclose(prof.a2, 0.0, rtol=0, atol=1e-15)
    assert np.allclose(prof.a1 - prof.a2, 1.0, rtol=0, atol=1e-15)


def test_dominance_requires_two_subspaces():
    tc = TrainingConfig(kappa=0.3, s=1)
    st = new_state(SMALL_CFG, tc)
    with pytest.raises(ValueError):
        dominance(st)


def test_divergence_is_reported():
    st = new_state(SMALL_CFG, SMALL_TC)
    st.params.ref_vectors[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError):
        run_training(st, 1)


def assert_saves_as(st, path):
    """st saves to the same bytes as the checkpoint at path: parameters,
    rates, step and data RNG all equal."""
    again = path.with_suffix(".again")
    checkpoint_save(st, again)
    assert again.read_bytes() == path.read_bytes()


def test_non_finite_update_rate_is_reported(tmp_path):
    # epsilon * spread / mean|grad| overflows: one typed error, no warning
    st = new_state(SMALL_CFG, dataclasses.replace(SMALL_TC, epsilon=1e308))
    checkpoint_save(st, tmp_path / "before.ckpt")
    with pytest.raises(TrainingDivergedError, match="non-finite update rate at step 0"):
        run_training(st, 1)
    # the failed step changed nothing, the data RNG included
    assert_saves_as(st, tmp_path / "before.ckpt")


def test_non_finite_parameter_is_reported(monkeypatch, tmp_path):
    # finite gradients and finite rates, but a rate so large that the update
    # overflows: refs 30 away from the data give |ref gradient| > 1, and the
    # largest finite rate times that is inf
    monkeypatch.setattr("pmdnet.trainer.adapt_rates",
                        lambda params, grads, eps: (np.full(3, np.finfo(float).max), np.ones(3),
                                                    np.ones(3)))
    st = new_state(SMALL_CFG, SMALL_TC)
    st.params.ref_vectors[:] = 30.0
    checkpoint_save(st, tmp_path / "before.ckpt")
    with pytest.raises(TrainingDivergedError, match="non-finite parameter"):
        run_training(st, 1)
    # the update was computed out of place and never committed
    assert_saves_as(st, tmp_path / "before.ckpt")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_gradient_is_reported(monkeypatch, tmp_path, bad):
    # a NaN gradient makes its rate NaN; an inf one makes its rate 0 and
    # then a NaN parameter.  Either way the error names the gradient, and
    # no RuntimeWarning (a failure under pyproject's filter) is emitted
    def poisoned(states, lattice, n):
        grads = gradient_set_from_states(states, lattice, n)
        grads.weight_total[0, 0] = bad
        return grads

    monkeypatch.setattr("pmdnet.trainer.gradient_set_from_states", poisoned)
    st = new_state(SMALL_CFG, SMALL_TC)
    checkpoint_save(st, tmp_path / "before.ckpt")
    with pytest.raises(TrainingDivergedError, match="non-finite gradient at step 0"):
        run_training(st, 1)
    assert_saves_as(st, tmp_path / "before.ckpt")


def test_overflowing_gradient_mean_is_reported(monkeypatch, tmp_path):
    # every weight total is finite, but their sum overflows, so the mean
    # |gradient| is inf; the rate it gives would read 0 and commit a step
    # that changes no weight, so the step is refused as a non-finite gradient
    def huge(states, lattice, n):
        grads = gradient_set_from_states(states, lattice, n)
        grads.weight_total[:] = 1e307
        return grads

    monkeypatch.setattr("pmdnet.trainer.gradient_set_from_states", huge)
    st = new_state(GRADCHECK_DEFAULTS.lattice, GRADCHECK_DEFAULTS.training)
    checkpoint_save(st, tmp_path / "before.ckpt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError, match="non-finite gradient at step 0"):
            run_training(st, 1)
    assert_saves_as(st, tmp_path / "before.ckpt")


def test_interrupted_step_leaves_rng_where_it_was(monkeypatch, tmp_path):
    # Ctrl-C inside a step (a BaseException, not an Exception) must not
    # leave the data RNG one draw ahead
    def interrupted(states, lattice, n):
        raise KeyboardInterrupt

    st = run_training(new_state(SMALL_CFG, SMALL_TC), 2)
    checkpoint_save(st, tmp_path / "before.ckpt")
    monkeypatch.setattr("pmdnet.trainer.gradient_set_from_states", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_training(st, 1)
    assert_saves_as(st, tmp_path / "before.ckpt")


def test_non_finite_input_is_named_as_bad_input(tmp_path):
    st = new_state(SMALL_CFG, SMALL_TC)
    x = next_vector(st)
    x.reshape(-1)[3] = np.nan
    checkpoint_save(st, tmp_path / "before.ckpt")
    with pytest.raises(ValueError, match="input vector must be finite"):
        train_step(st, x)
    assert_saves_as(st, tmp_path / "before.ckpt")


def test_objective_improves_on_small_run():
    wins = 0
    for seed in (0, 1, 2):
        tc = TrainingConfig(kappa=2 * np.pi / 7, nu=0.1, s=2, n=5,
                            epsilon=0.01, seed=seed, updates=0)
        st = new_state(SMALL_CFG, tc)
        held = heldout_samples(SMALL_CFG, tc, 32)
        start = heldout_objective(st, held).total
        run_training(st, 400)
        end = heldout_objective(st, held).total
        if end < start:
            wins += 1
    assert wins >= 2


def test_checkpoint_roundtrip_bitwise(tmp_path):
    st = run_training(new_state(SMALL_CFG, SMALL_TC), 25)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    checkpoint_save(st, p1)
    st2 = checkpoint_load(p1)
    checkpoint_save(st2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert st2.step == st.step
    assert st2.seed_policy == st.seed_policy
    assert st2.tcfg == st.tcfg
    assert st2.lattice_cfg == st.lattice_cfg
    assert np.array_equal(st2.params.weights, st.params.weights)
    assert np.array_equal(st2.params.biases, st.params.biases)
    assert np.array_equal(st2.params.ref_vectors, st.params.ref_vectors)
    assert st2.data_rng.bit_generator.state == st.data_rng.bit_generator.state


def test_checkpoint_load_sizes_its_payload_from_the_header(tmp_path, monkeypatch):
    cfg = LatticeConfig(node_dims=(3, 4), input_window=(3, 5),
                        neighbourhood_window=(3, 3), leakage_window=(1, 1))
    st = run_training(new_state(cfg, SMALL_TC), 5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint_save(st, p1)

    def refuse(cfg):
        raise AssertionError("checkpoint_load built a Lattice")

    monkeypatch.setattr("pmdnet.trainer.get_lattice", refuse)
    st2 = checkpoint_load(p1)
    checkpoint_save(st2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert st2.params.weights.shape == st2.params.ref_vectors.shape == (12, 15)


def test_checkpoint_resume_equals_uninterrupted(tmp_path):
    straight = run_training(new_state(SMALL_CFG, SMALL_TC), 30)
    p_final = tmp_path / "straight.ckpt"
    checkpoint_save(straight, p_final)

    part = run_training(new_state(SMALL_CFG, SMALL_TC), 15)
    p_mid = tmp_path / "mid.ckpt"
    checkpoint_save(part, p_mid)
    resumed = checkpoint_load(p_mid)
    run_training(resumed, 15)
    p_resumed = tmp_path / "resumed.ckpt"
    checkpoint_save(resumed, p_resumed)
    assert p_final.read_bytes() == p_resumed.read_bytes()


def test_checkpoint_corruption_detected(tmp_path):
    st = run_training(new_state(SMALL_CFG, SMALL_TC), 2)
    p = tmp_path / "e.ckpt"
    checkpoint_save(st, p)
    blob = p.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError):
        checkpoint_load(bad)

    bad.write_bytes(blob[:30])
    with pytest.raises(CheckpointError):
        checkpoint_load(bad)

    flipped = bytearray(blob)
    flipped[40] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError):
        checkpoint_load(bad)

    body = bytearray(blob[:-32])
    struct.pack_into("<I", body, 8, 99)  # future version, checksum repaired
    bad.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
    with pytest.raises(CheckpointError):
        checkpoint_load(bad)

    body = blob[:-32] + b"\x00" * 8
    bad.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CheckpointError):
        checkpoint_load(bad)


def rewrite_header(blob: bytes, edit) -> bytes:
    """The checkpoint with its JSON header passed through edit, length and
    checksum repaired, so only the header content is wrong."""
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + header_len])
    text = edit(header)
    new_header = (text if isinstance(text, bytes) else json.dumps(text).encode())
    body = blob[:12] + struct.pack("<Q", len(new_header)) + new_header + blob[20 + header_len:-32]
    return body + hashlib.sha256(body).digest()


def test_failed_checkpoint_write_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    p = tmp_path / "w.ckpt"
    checkpoint_save(run_training(new_state(SMALL_CFG, SMALL_TC), 2), p)
    before = p.read_bytes()

    class FullDisk:
        """A file that takes half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr("pmdnet.trainer.open", lambda *a, **k: FullDisk(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        checkpoint_save(run_training(new_state(SMALL_CFG, SMALL_TC), 4), p)
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert checkpoint_load(p).step == 2
    assert sorted(f.name for f in tmp_path.iterdir()) == ["w.ckpt"]


def read_header(blob: bytes) -> dict:
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    return json.loads(blob[20:20 + header_len])


def test_checkpoint_header_follows_config_fields(tmp_path, capsys):
    p = tmp_path / "h.ckpt"
    checkpoint_save(new_state(SMALL_CFG, SMALL_TC), p)
    blob = p.read_bytes()
    header = read_header(blob)
    assert set(header["lattice"]) == {f.name for f in dataclasses.fields(LatticeConfig)}
    assert set(header["training"]) == {f.name for f in dataclasses.fields(TrainingConfig)}
    assert rewrite_header(blob, lambda h: h) == blob

    # the command line runs the preset instances when given nothing
    assert load_run_config(None, [], None) == DEFAULTS
    assert load_run_config(None, [], None, defaults=GRADCHECK_DEFAULTS) == GRADCHECK_DEFAULTS
    assert dataclasses.replace(GRADCHECK_DEFAULTS, lattice=DEFAULTS.lattice,
                               training=DEFAULTS.training) == DEFAULTS
    out = tmp_path / "out"
    assert main(["train", "--override", "training.updates=0", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    header = read_header((out / "checkpoint_final.ckpt").read_bytes())
    assert LatticeConfig(**header["lattice"]) == DEFAULTS.lattice
    assert TrainingConfig(**header["training"]) == dataclasses.replace(DEFAULTS.training, updates=0)
    # a checkpoint's header sections and the [run] settings rebuild the
    # hash that the run's CSVs carry
    run = {"report_every": 100, "checkpoint_every": 0, "seed_policy": header["seed_policy"],
           "heldout_size": 64}
    rebuilt = config_hash({"lattice": header["lattice"], "training": header["training"], **run})
    for fname in ("objective_trace.csv", "dominance.csv"):
        assert (out / fname).read_text().splitlines()[0] == f"# config_hash={rebuilt}"

    # the settings a resume may change are real config fields
    for setting in RESUMABLE:
        section, _, key = setting.partition(".")
        assert key in SECTIONS[section]


def test_checkpoint_rejects_malformed_header(tmp_path):
    p = tmp_path / "m.ckpt"
    checkpoint_save(run_training(new_state(SMALL_CFG, SMALL_TC), 2), p)
    blob = p.read_bytes()

    def drop(section, key):
        def edit(h):
            del h[section][key]
            return h
        return edit

    def put(path, value):
        def edit(h):
            target = h
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            return h
        return edit

    edits = [
        drop("lattice", "node_dims"),
        drop("training", "kappa"),
        put(["lattice", "node_dims"], "1,12"),
        put(["lattice", "extra"], [1, 1]),
        put(["training", "kappa"], "fast"),
        put(["training", "n"], None),
        put(["training"], [1, 2]),
        put(["seed_policy"], 7),
        put(["step"], "two"),
        put(["rates"], {"a": 1}),
        put(["rates"], [1.0]),
        put(["diameters"], [[1.0, 2.0], [3.0, 4.0]]),
        put(["step"], -5),
        put(["rng"], "PCG64"),
        put(["rng", "state"], None),
        # a float where an int is declared, and a bool anywhere
        put(["training", "n"], 5.5),
        put(["training", "s"], 2.0),
        put(["training", "seed"], 1.5),
        put(["training", "updates"], 3.7),
        put(["training", "kappa"], True),
        put(["lattice", "node_dims"], [1.0, 12]),
        put(["step"], 2.5),
        put(["step"], True),
        put(["training", "seed"], -1),
        # a non-finite config value (JSON NaN)
        put(["training", "nu"], float("nan")),
        lambda h: [h],
        lambda h: b"{not json",
        lambda h: b"\xff\xfe",
    ]
    bad = tmp_path / "bad.ckpt"
    for edit in edits:
        bad.write_bytes(rewrite_header(blob, edit))
        with pytest.raises(CheckpointError):
            checkpoint_load(bad)


def test_every_truncation_and_bit_flip_is_rejected(tmp_path):
    # two nodes with 1x1 windows keep the file small enough to try every
    # prefix and every single-bit flip of it
    cfg = LatticeConfig(node_dims=(1, 2), input_window=(1, 1),
                        neighbourhood_window=(1, 1), leakage_window=(1, 1))
    p = tmp_path / "f.ckpt"
    checkpoint_save(new_state(cfg, SMALL_TC), p)
    blob = p.read_bytes()
    bad = tmp_path / "bad.ckpt"
    for length in range(len(blob)):
        bad.write_bytes(blob[:length])
        with pytest.raises(CheckpointError):
            checkpoint_load(bad)
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            checkpoint_load(bad)
