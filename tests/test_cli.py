"""Command-line layer: config merging, exit codes, output files."""

import math

import numpy as np
import pytest

from pmdnet.cli import (
    DEFAULTS,
    ConfigError,
    build_run_config,
    config_hash,
    main,
    merge_config,
)

from pmdnet.trainer import checkpoint_load

from test_trainer import rewrite_header

TINY_INI = """\
[lattice]
node_dims = 1,12
input_window = 1,7
neighbourhood_window = 1,5
leakage_window = 1,3

[training]
kappa = {kappa}
nu = 0.1
s = 2
n = 5
epsilon = 0.01
seed = 3
updates = {updates}

[run]
report_every = 10
checkpoint_every = 20
heldout_size = 8
""".format


def write_tiny(tmp_path, updates=40, kappa=2 * math.pi / 7, name="run.ini"):
    path = tmp_path / name
    path.write_text(TINY_INI(kappa=f"{kappa!r}", updates=updates))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def csv_hash(path):
    return path.read_text().splitlines()[0]


def test_merge_config_defaults_and_overrides():
    merged = merge_config(None, [], None)
    assert merged["lattice"]["node_dims"] == "1,100"
    assert merged["training"]["kappa"] == "0.3"

    merged = merge_config({"training": {"kappa": "0.5"}}, ["run.channel=a2"], 7)
    assert merged["training"]["kappa"] == "0.5"
    assert merged["run"]["channel"] == "a2"
    assert merged["training"]["seed"] == "7"
    # defaults are not mutated in place
    assert DEFAULTS["training"]["kappa"] == "0.3"


def test_merge_config_rejects_unknown_targets():
    with pytest.raises(ConfigError):
        merge_config({"physics": {"c": "1"}}, [], None)
    with pytest.raises(ConfigError):
        merge_config({"training": {"gamma": "1"}}, [], None)
    with pytest.raises(ConfigError):
        merge_config(None, ["no_dot_or_equals"], None)
    with pytest.raises(ConfigError):
        merge_config(None, ["training.gamma=1"], None)


def test_config_hash_is_stable():
    a = config_hash(merge_config(None, [], None))
    b = config_hash(merge_config(None, [], None))
    c = config_hash(merge_config(None, ["training.seed=1"], None))
    assert a == b
    assert a != c
    assert len(a) == 12 and all(ch in "0123456789abcdef" for ch in a)


def test_build_run_config_validation():
    base = merge_config(None, [], None)
    rc = build_run_config(base)
    assert rc.lattice.node_dims == (1, 100)
    assert rc.training.n == 400
    assert rc.cfg_hash == config_hash(base)

    for override in (["lattice.node_dims=1,2,3"], ["training.kappa=fast"],
                     ["run.seed_policy=maybe"], ["run.channel=a3"],
                     ["run.heldout_size=0"], ["lattice.input_window=1,4"]):
        with pytest.raises(ConfigError):
            build_run_config(merge_config(None, override, None))


def test_exit_codes_for_bad_input(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.ini")]) == 3
    bad = tmp_path / "bad.ini"
    bad.write_text("[training]\ngamma = 1\n")
    assert main(["train", "--config", str(bad)]) == 2
    assert main(["train", "--override", "nonsense"]) == 2
    assert main(["phase", "--m-min", "1", "--out-dir", str(tmp_path)]) == 2
    assert main(["phase", "--n-list", "x", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_gradcheck_passes_by_default(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max_rel_error" in out


@pytest.mark.parametrize("argv", [
    ["--seed", "13"],
    ["--seed", "11", "--override", "lattice.node_dims=4,4",
     "--override", "lattice.input_window=3,3",
     "--override", "lattice.neighbourhood_window=3,3",
     "--override", "lattice.leakage_window=3,3"],
])
def test_gradcheck_tolerates_rounding_noise(argv, capsys):
    # components so small that finite differencing resolves them only to
    # its rounding error, which a fixed 1e-8 floor used to call a failure
    assert main(["gradcheck"] + argv) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["gradcheck", "--corrupt"] + argv) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_detects_corruption(capsys):
    assert main(["gradcheck", "--corrupt"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_rejects_large_lattices(tmp_path, capsys):
    ini = write_tiny(tmp_path)  # 12 nodes is fine
    assert main(["gradcheck", "--config", str(ini),
                 "--override", "lattice.node_dims=1,100"]) == 2
    capsys.readouterr()


def test_bound_oracle_pass_and_reduced_case(capsys):
    assert main(["bound-oracle"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    assert main(["bound-oracle", "--firings", "1"]) == 0
    out = capsys.readouterr().out
    vals = {}
    for line in out.splitlines():
        if "=" in line and line[:2] in ("D ", "D1", "D2", "D3"):
            key, _, val = line.partition("=")
            vals[key.strip()] = float(val)
    assert vals["D2"] == 0.0
    assert vals["D3"] == 0.0


def test_bound_oracle_enumeration_guard(capsys):
    assert main(["bound-oracle", "--nodes", "101", "--firings", "3"]) == 2
    capsys.readouterr()


def test_phase_outputs(tmp_path, capsys):
    out = tmp_path / "phase"
    assert main(["phase", "--out-dir", str(out), "--m-min", "2", "--m-max", "32",
                 "--m-step", "0.5", "--n-list", "1,2,inf"]) == 0
    printed = capsys.readouterr().out
    assert "n=1: type1 M=4..19; type2 M=20..100; type3 never" in printed
    assert "n=2: type1 M=4..12; type2 M=30..100; type3 M=12..29" in printed
    assert "n=inf: type1 M=4..8; type2 never; type3 M=8..100" in printed

    for name in ("values_n1.csv", "values_n2.csv", "values_ninf.csv"):
        header, rows = read_csv(out / name)
        assert header == ["M", "value_type1", "value_type2", "value_type3", "winner"]
        assert len(rows) == 61  # 2.0 .. 32.0 by 0.5
        assert all(float(r[1]) < 0 for r in rows)

    header, rows = read_csv(out / "phase_boundaries.csv")
    assert header == ["n", "M", "optimal_below", "optimal_above"]
    n1 = [r for r in rows if r[0] == "1" and float(r[1]) > 3]
    assert len(n1) == 1 and 19 < float(n1[0][1]) < 20
    assert n1[0][2] == "type1" and n1[0][3] == "type2"
    ninf = [r for r in rows if r[0] == "inf" and float(r[1]) > 3]
    assert len(ninf) == 1 and abs(float(ninf[0][1]) - 8.0) < 1e-4


def test_train_tiny_run_outputs(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr()
    assert "finished at step 40" in printed.out
    assert "warning" not in printed.err  # kappa closes the window exactly

    header, rows = read_csv(out / "objective_trace.csv")
    assert header == ["step", "d1", "d2", "total"]
    assert [int(r[0]) for r in rows] == [0, 10, 20, 30, 40]
    for r in rows:
        total = float(r[3])
        assert total == pytest.approx(float(r[1]) + float(r[2]), rel=1e-12)

    header, rows = read_csv(out / "dominance.csv")
    assert header == ["node_index", "a1", "a2"]
    assert len(rows) == 12

    header, rows = read_csv(out / "dominance_history.csv")
    assert header == ["step", "node_index", "a1", "a2"]
    assert len(rows) == 5 * 12

    assert (out / "checkpoint_000020.ckpt").exists()
    assert (out / "checkpoint_000040.ckpt").exists()
    assert (out / "checkpoint_final.ckpt").exists()
    assert not (out / "dominance_a1.pgm").exists()  # 1D run: no graymap


def test_train_zero_updates(tmp_path, capsys):
    ini = write_tiny(tmp_path, updates=0)
    out = tmp_path / "out0"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    _, rows = read_csv(out / "objective_trace.csv")
    assert [int(r[0]) for r in rows] == [0]
    _, dom = read_csv(out / "dominance.csv")
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in dom)


def test_train_warns_on_open_window(tmp_path, capsys):
    ini = write_tiny(tmp_path, updates=0, kappa=0.35, name="warn.ini")
    out = tmp_path / "warnout"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    assert "warning" in capsys.readouterr().err


def test_train_resume_matches_uninterrupted(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    full = tmp_path / "full"
    assert main(["train", "--config", str(ini), "--out-dir", str(full)]) == 0
    resumed = tmp_path / "resumed"
    assert main(["train", "--resume", str(full / "checkpoint_000020.ckpt"),
                 "--out-dir", str(resumed)]) == 0
    capsys.readouterr()
    a = (full / "checkpoint_final.ckpt").read_bytes()
    b = (resumed / "checkpoint_final.ckpt").read_bytes()
    assert a == b


def test_resume_applies_run_length_and_epsilon_overrides(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    full = tmp_path / "full"
    assert main(["train", "--config", str(ini), "--out-dir", str(full)]) == 0
    hash_full = csv_hash(full / "objective_trace.csv")
    longer = tmp_path / "longer"
    assert main(["train", "--resume", str(full / "checkpoint_000020.ckpt"),
                 "--config", str(ini), "--out-dir", str(longer), "--override", "training.updates=50",
                 "--override", "training.epsilon=0.02"]) == 0
    assert "finished at step 50" in capsys.readouterr().out
    st = checkpoint_load(longer / "checkpoint_final.ckpt")
    assert st.step == 50 and st.tcfg.updates == 50 and st.tcfg.epsilon == 0.02
    assert st.tcfg.kappa == checkpoint_load(full / "checkpoint_final.ckpt").tcfg.kappa
    # the CSVs carry the hash of the config that ran: the checkpoint's
    # lattice and training settings with the two overrides applied
    hash_longer = csv_hash(longer / "objective_trace.csv")
    assert hash_longer != hash_full
    ref = tmp_path / "ref"
    assert main(["train", "--config", str(ini), "--out-dir", str(ref), "--override",
                 "training.updates=50", "--override", "training.epsilon=0.02"]) == 0
    capsys.readouterr()
    assert csv_hash(ref / "objective_trace.csv") == hash_longer


def test_resume_without_overrides_keeps_the_run_hash(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    full = tmp_path / "full"
    assert main(["train", "--config", str(ini), "--out-dir", str(full)]) == 0
    # the same config file again: its lattice and training settings equal
    # the checkpoint's, and its run settings make the run the same run
    resumed = tmp_path / "resumed"
    assert main(["train", "--resume", str(full / "checkpoint_000020.ckpt"),
                 "--config", str(ini), "--out-dir", str(resumed)]) == 0
    capsys.readouterr()
    assert (full / "checkpoint_final.ckpt").read_bytes() == (resumed / "checkpoint_final.ckpt").read_bytes()
    assert (csv_hash(resumed / "objective_trace.csv")
            == csv_hash(full / "objective_trace.csv"))


@pytest.mark.parametrize("extra", [
    ["--override", "training.kappa=0.9"],
    ["--override", "training.kappa=0.9", "--override", "training.updates=40"],
    ["--override", "lattice.node_dims=1,20"],
    ["--seed", "5"],
])
def test_resume_rejects_model_overrides(tmp_path, capsys, extra):
    ini = write_tiny(tmp_path, updates=0)
    out = tmp_path / "out"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    resumed = tmp_path / "resumed"
    assert main(["train", "--resume", str(out / "checkpoint_final.ckpt"), "--config", str(ini),
                 "--out-dir", str(resumed)] + extra) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: a resumed run keeps")
    assert not resumed.exists()


def test_train_outputs_are_deterministic(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    for fname in ("objective_trace.csv", "dominance.csv", "checkpoint_final.ckpt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


TINY_2D_INI = """\
[lattice]
node_dims = 3,4
input_window = 3,3
neighbourhood_window = 3,3
leakage_window = 1,1

[training]
kappa = {kappa}
nu = 0.0
s = 2
n = 5
epsilon = 0.01
seed = 1
updates = 6

[run]
report_every = 3
checkpoint_every = 0
heldout_size = 4
""".format


def test_train_divergence_exits_1(tmp_path, capsys):
    # the rate epsilon * spread / mean|grad| overflows at once; that is one
    # error line, with no numpy warning ahead of it
    ini = write_tiny(tmp_path, updates=2)
    code = main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "div"),
                 "--override", "training.epsilon=1e308"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: training diverged: non-finite update rate at step 0"]


def test_resume_from_malformed_header_exits_2(tmp_path, capsys):
    ini = write_tiny(tmp_path, updates=0)
    out = tmp_path / "out"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_header((out / "checkpoint_final.ckpt").read_bytes(),
                                   lambda h: {**h, "lattice": {}}))
    capsys.readouterr()
    assert main(["train", "--resume", str(bad), "--out-dir", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: malformed checkpoint header")


def test_train_2d_writes_graymap(tmp_path, capsys):
    ini = tmp_path / "run2d.ini"
    ini.write_text(TINY_2D_INI(kappa=f"{2 * math.pi / 3!r}"))
    out = tmp_path / "out2d"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    blob = (out / "dominance_a1.pgm").read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert len(blob) == len(b"P5\n4 3\n255\n") + 12

    out2 = tmp_path / "out2d_a2"
    assert main(["train", "--config", str(ini), "--out-dir", str(out2),
                 "--channel", "a2"]) == 0
    capsys.readouterr()
    assert (out2 / "dominance_a2.pgm").exists()
