"""Command-line layer: config merging, exit codes, output files."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from pmdnet import cli, trainer
from pmdnet.cli import (
    DEFAULTS,
    SECTIONS,
    ConfigError,
    build_run_config,
    config_hash,
    load_run_config,
    main,
    merge_config,
)

from pmdnet.objective import ENUMERATION_GUARD, MAX_FIRINGS
from pmdnet.trainer import checkpoint_load, checkpoint_save

from test_trainer import read_header, rewrite_header

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


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def test_merge_config_defaults_and_overrides():
    rc = build_run_config(merge_config(None, [], None))
    assert rc == DEFAULTS
    assert rc.lattice.node_dims == (1, 100)
    assert rc.training.kappa == 0.3

    merged = merge_config({"training": {"kappa": "0.5"}}, ["run.report_every=5"], 7)
    assert merged == {"training.kappa": "0.5", "run.report_every": "5", "training.seed": "7"}
    rc = build_run_config(merged)
    assert rc.training.kappa == 0.5
    assert rc.report_every == 5
    assert rc.training.seed == 7
    # defaults are not mutated in place
    assert DEFAULTS.training.kappa == 0.3


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
    a = config_hash(load_run_config(None, [], None))
    b = config_hash(load_run_config(None, [], None))
    c = config_hash(load_run_config(None, ["training.seed=1"], None))
    assert a == b
    assert a != c
    assert len(a) == 12 and all(ch in "0123456789abcdef" for ch in a)


def test_build_run_config_validation():
    base = merge_config(None, [], None)
    rc = build_run_config(base)
    assert rc.lattice.node_dims == (1, 100)
    assert rc.training.n == 400
    assert config_hash(rc) == config_hash(DEFAULTS)

    for override in (["lattice.node_dims=1,2,3"], ["training.kappa=fast"],
                     ["run.seed_policy=maybe"], ["run.channel=a3"],
                     ["run.heldout_size=0"], ["lattice.input_window=1,4"],
                     ["training.nu=nan"], ["training.kappa=inf"], ["training.epsilon=inf"],
                     ["training.seed=-1"]):
        with pytest.raises(ConfigError):
            build_run_config(merge_config(None, override, None))
    # a negative --seed is a config error that names the seed, not numpy's
    with pytest.raises(ConfigError, match="^seed must be nonnegative"):
        build_run_config(merge_config(None, [], -1))

    # a value that does not parse as its declared type names its setting
    for override, setting in (("training.n=2.5", "training.n"), ("training.kappa=fast", "training.kappa")):
        with pytest.raises(ConfigError, match=f"^{setting}: "):
            build_run_config(merge_config(None, [override], None))


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


def test_gradcheck_checks_its_node_limit_before_building_the_lattice(capsys, monkeypatch):
    def built(cfg):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(cli, "get_lattice", built)
    assert main(["gradcheck", "--override", "lattice.node_dims=5,5"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: gradcheck is limited to 16 nodes (finite differencing cost), config has 25"]


# The child caps its own address space at 3 GiB before importing pmdnet.
CAPPED_CLI = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))\n"
              "from pmdnet.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("command, areas", [("train", "41 + 21 + 15"), ("gradcheck", "5 + 3 + 3")])
def test_oversized_lattice_exits_2_before_allocating(tmp_path, command, areas):
    # its windows would need some 300 GiB, so an allocation would end in an
    # out-of-memory exit 1 under the cap
    out = tmp_path / "out"
    argv = [command, "--override", "lattice.node_dims=200000,200000"]
    argv += ["--out-dir", str(out)] if command == "train" else []
    proc = subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    m = 200_000**2
    cells = m * sum(map(int, areas.split(" + ")))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error: lattice windowed size M * (K + N + L) = {m:,} * ({areas}) = {cells:,} cells "
        f"exceeds the 10,000,000 bound"]
    assert not out.exists()


def test_oversized_heldout_batch_exits_2_before_drawing(tmp_path, capsys, monkeypatch):
    def drawn(*args):
        raise AssertionError("held-out vectors were drawn")

    monkeypatch.setattr(cli, "heldout_samples", drawn)
    out = tmp_path / "out"
    assert main(["train", "--out-dir", str(out), "--override", "run.heldout_size=100000000",
                 "--override", "training.updates=0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: run.heldout_size * input size = 100,000,000 * 140 = 14,000,000,000 cells "
        "exceeds the 10,000,000 bound"]
    assert not out.exists()
    # the stripe's 140 input cells admit heldout_size up to the bound's 71 428
    assert build_run_config({"run.heldout_size": "71428"}).heldout_size == 71428
    with pytest.raises(ConfigError, match="71,429 \\* 140 = 10,000,060 cells"):
        build_run_config({"run.heldout_size": "71429"})


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
    err = capsys.readouterr().err
    assert err == f"error: tuple space M^n = 101^3 exceeds the {ENUMERATION_GUARD:,} enumeration guard\n"


@pytest.mark.parametrize("nodes, firings", [(1, 70), (1, 10**9), (2, MAX_FIRINGS + 1)])
def test_bound_oracle_refuses_too_many_firings(capsys, nodes, firings):
    # --nodes 1 makes M^n = 1, which the tuple guard alone would let through
    assert main(["bound-oracle", "--nodes", str(nodes), "--firings", str(firings)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --firings {firings} exceeds {MAX_FIRINGS},")
    assert captured.err.count("\n") == 1


# The lines bound-oracle printed when it enumerated with (T, dim) arrays.
ORACLE_GOLDEN = {
    (): ["D  = 1.181267145115", "D1 = 0.595219120087", "D2 = 0.591466516536",
         "D3 = 0.005418491508", "decomposition residual |D - (D1+D2-D3)| = 0.000e+00", "PASS"],
    ("--nodes", "20", "--firings", "4", "--samples", "20", "--dim", "4", "--seed", "0"):
        ["D  = 2.112844851123", "D1 = 0.554163747345", "D2 = 1.644566324083",
         "D3 = 0.085885220304", "decomposition residual |D - (D1+D2-D3)| = 1.332e-15", "PASS"],
}


@pytest.mark.parametrize("args", list(ORACLE_GOLDEN))
def test_bound_oracle_prints_pinned_lines(capsys, args):
    assert main(["bound-oracle", *args]) == 0
    assert capsys.readouterr().out.splitlines() == ORACLE_GOLDEN[args]


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


def test_resume_refuses_a_target_below_the_checkpoint_step(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    full = tmp_path / "full"
    assert main(["train", "--config", str(ini), "--out-dir", str(full)]) == 0
    capsys.readouterr()
    checkpoint = str(full / "checkpoint_000020.ckpt")
    resumed = tmp_path / "resumed"
    assert main(["train", "--resume", checkpoint, "--out-dir", str(resumed),
                 "--override", "training.updates=10"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: training.updates 10 is below the checkpoint's step 20"]
    assert not resumed.exists()
    # a target equal to the checkpoint's step runs no update and reports once
    assert main(["train", "--resume", checkpoint, "--out-dir", str(resumed),
                 "--override", "training.updates=20"]) == 0
    assert "finished at step 20" in capsys.readouterr().out
    assert [row[0] for row in read_csv(resumed / "objective_trace.csv")[1]] == ["20"]
    _, rows = read_csv(resumed / "dominance_history.csv")
    assert {row[0] for row in rows} == {"20"} and len(rows) == 12
    assert checkpoint_load(resumed / "checkpoint_final.ckpt").step == 20


def test_train_rows_are_on_disk_while_the_run_goes_on(tmp_path, capsys, monkeypatch):
    # report_every 10 and checkpoint_every 20: the checkpoint written at
    # step 20 comes after that step's report
    seen = {}
    save = trainer.checkpoint_save

    def reading_save(state, path):
        if state.step == 20:
            seen["trace"] = [row[0] for row in read_csv(out / "objective_trace.csv")[1]]
            seen["history"] = [row[0] for row in read_csv(out / "dominance_history.csv")[1]]
        save(state, path)

    monkeypatch.setattr(trainer, "checkpoint_save", reading_save)
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_tiny(tmp_path)), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert seen["trace"] == ["0", "10", "20"]
    assert seen["history"] == [step for step in ("0", "10", "20") for _ in range(12)]


def test_resume_applies_seed_policy(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    full = tmp_path / "full"
    assert main(["train", "--config", str(ini), "--out-dir", str(full)]) == 0
    resumed = tmp_path / "resumed"
    assert main(["train", "--resume", str(full / "checkpoint_000020.ckpt"), "--out-dir", str(resumed),
                 "--override", "run.seed_policy=restart"]) == 0
    assert "finished at step 40" in capsys.readouterr().out
    header = read_header((resumed / "checkpoint_final.ckpt").read_bytes())
    assert header["seed_policy"] == "restart" and header["step"] == 40


def test_train_outputs_are_deterministic(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    assert "dominance_history.csv" in names and "checkpoint_000020.ckpt" in names
    for fname in names:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


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
    # the rows recorded before the failure are written
    _, rows = read_csv(tmp_path / "div" / "objective_trace.csv")
    assert [row[0] for row in rows] == ["0"]
    _, rows = read_csv(tmp_path / "div" / "dominance_history.csv")
    assert [row[:2] for row in rows] == [["0", str(idx)] for idx in range(12)]


def test_non_finite_training_values_are_config_errors(tmp_path, capsys):
    # a value that can never run is refused before the run starts; a
    # finite epsilon that overflows the rate still diverges at run time
    ini = write_tiny(tmp_path, updates=2)
    for override in ("training.nu=nan", "training.kappa=inf", "training.epsilon=inf"):
        code = main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "bad"),
                     "--override", override])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert override.split(".")[1].split("=")[0] + " must be finite" in err
    assert not (tmp_path / "bad").exists()


def test_degenerate_activity_exits_1(tmp_path, capsys):
    # biases of -800 underflow every activity to 0: a failure of the state
    # the run is in, not of its configuration
    ini = write_tiny(tmp_path, updates=0)
    out = tmp_path / "out"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    state = checkpoint_load(out / "checkpoint_final.ckpt")
    state.tcfg = dataclasses.replace(state.tcfg, updates=2)
    state.params.biases[:] = -800.0
    checkpoint_save(state, tmp_path / "dead.ckpt")
    capsys.readouterr()
    assert main(["train", "--resume", str(tmp_path / "dead.ckpt"),
                 "--out-dir", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: neighbourhood of node (0, 0) has zero activity"]


def test_run_flags_are_validated_and_hashed(tmp_path, capsys):
    ini = write_tiny(tmp_path, updates=0)

    def trace_hash(name, *extra):
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / name), *extra]) == 0
        return csv_hash(tmp_path / name / "objective_trace.csv")

    flag = trace_hash("flag", "--report-every", "5", "--checkpoint-every", "7")
    override = trace_hash("override", "--override", "run.report_every=5",
                          "--override", "run.checkpoint_every=7")
    assert flag == override != trace_hash("default")
    capsys.readouterr()
    for bad in (["--report-every", "-1"], ["--checkpoint-every", "-1"]):
        assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path / "bad"), *bad]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_resume_from_malformed_header_exits_2(tmp_path, capsys):
    ini = write_tiny(tmp_path, updates=0)
    out = tmp_path / "out"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    bad = tmp_path / "bad.ckpt"
    # a float run length is refused before it can reach range()
    for edit in (lambda h: {**h, "lattice": {}},
                 lambda h: {**h, "training": {**h["training"], "updates": 3.7}}):
        bad.write_bytes(rewrite_header((out / "checkpoint_final.ckpt").read_bytes(), edit))
        capsys.readouterr()
        assert main(["train", "--resume", str(bad), "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: malformed checkpoint header")


def test_spellings_of_one_config_give_one_hash(tmp_path, capsys):
    # the hash is taken over the typed values, so every spelling of them
    # writes the same files, hash line included
    outs = []
    for kappa, node_dims in (("0.3", "1,100"), ("0.30", "1, 100"), ("3e-1", "1,100")):
        ini = tmp_path / f"{kappa}.ini"
        ini.write_text(f"[lattice]\nnode_dims = {node_dims}\n[training]\nkappa = {kappa}\nupdates = 4\n")
        outs.append(tmp_path / f"out{len(outs)}")
        assert main(["train", "--config", str(ini), "--out-dir", str(outs[-1])]) == 0
    outs.append(tmp_path / "defaults")
    assert main(["train", "--override", "training.updates=4", "--out-dir", str(outs[-1])]) == 0
    capsys.readouterr()
    for fname in ("objective_trace.csv", "dominance_history.csv", "dominance.csv",
                  "checkpoint_final.ckpt"):
        assert len({(out / fname).read_bytes() for out in outs}) == 1, fname


def test_resume_in_another_spelling_keeps_the_run_hash(tmp_path, capsys):
    ini = write_tiny(tmp_path)
    full = tmp_path / "full"
    assert main(["train", "--config", str(ini), "--out-dir", str(full)]) == 0
    text = ini.read_text()
    for old, new in (("node_dims = 1,12", "node_dims = 1, 12"), ("nu = 0.1", "nu = 0.10"),
                     ("epsilon = 0.01", "epsilon = 1e-2"), ("heldout_size = 8", "heldout_size = 08")):
        assert old in text
        text = text.replace(old, new)
    respelled = tmp_path / "respelled.ini"
    respelled.write_text(text)
    resumed = tmp_path / "resumed"
    assert main(["train", "--resume", str(full / "checkpoint_000020.ckpt"),
                 "--config", str(respelled), "--out-dir", str(resumed)]) == 0
    capsys.readouterr()
    assert (full / "checkpoint_final.ckpt").read_bytes() == (resumed / "checkpoint_final.ckpt").read_bytes()
    for fname in ("objective_trace.csv", "dominance_history.csv", "dominance.csv"):
        assert csv_hash(resumed / fname) == csv_hash(full / fname)


def test_phase_hash_reads_values_not_spelling(tmp_path, capsys):
    hashes = set()
    for name, n_list in (("a", "1,2,inf"), ("b", "1, 2, inf"), ("c", "1.0,2,infinity")):
        assert main(["phase", "--out-dir", str(tmp_path / name), "--m-max", "10",
                     "--n-list", n_list]) == 0
        hashes.add(csv_hash(tmp_path / name / "phase_boundaries.csv"))
    capsys.readouterr()
    assert len(hashes) == 1


def test_train_2d_writes_graymap(tmp_path, capsys):
    ini = tmp_path / "run2d.ini"
    ini.write_text(TINY_2D_INI(kappa=f"{2 * math.pi / 3!r}"))
    out = tmp_path / "out2d"
    assert main(["train", "--config", str(ini), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    for name in ("dominance_a1.pgm", "dominance_a2.pgm"):
        blob = (out / name).read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert len(blob) == len(b"P5\n4 3\n255\n") + 12


def test_train_one_node_row_with_tall_windows_is_a_2d_run(tmp_path, capsys):
    # a 3-row padded input: plane waves, and both window axes are checked
    out = tmp_path / "row"
    assert main(["train", "--out-dir", str(out), "--override", "lattice.node_dims=1,8",
                 "--override", "lattice.input_window=3,3",
                 "--override", "lattice.neighbourhood_window=1,3",
                 "--override", "lattice.leakage_window=1,3",
                 "--override", "training.updates=50"]) == 0
    printed = capsys.readouterr()
    assert "finished at step 50" in printed.out
    assert [line.split(" = ")[0] for line in printed.err.splitlines()] == [
        "warning: kappa * i1 / 2pi", "warning: kappa * i2 / 2pi"]
    _, rows = read_csv(out / "objective_trace.csv")
    assert [int(r[0]) for r in rows] == [0, 50]
    _, rows = read_csv(out / "dominance_history.csv")
    assert len(rows) == 2 * 8
    _, rows = read_csv(out / "dominance.csv")
    assert len(rows) == 8


def test_readme_config_example_is_the_defaults(tmp_path):
    example = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(example)
    assert load_run_config(str(path), [], None) == DEFAULTS
    # it documents every setting and no other
    documented = cli._read_config_file(str(path))
    assert {section: set(items) for section, items in documented.items()} == {
        section: set(keys) for section, keys in SECTIONS.items()}


def test_channel_setting_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--channel", "a2", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["train", "--override", "run.channel=a2", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unknown override target run.channel"]
    ini = tmp_path / "old.ini"
    ini.write_text("[run]\nchannel = a1\n")
    assert main(["train", "--config", str(ini), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unknown key 'channel' in section [run]"]


@pytest.mark.parametrize("argv, flag", [
    (["--m-step", "1e-12"], "--m-step"),
    (["--m-step", "inf"], "--m-step"),
    (["--m-max", "inf"], "--m-max"),
    (["--m-max", "nan"], "--m-max"),
    (["--m-min", "nan"], "--m-min"),
    (["--m-min=-inf"], "--m-min"),
])
def test_phase_refuses_bad_grids(tmp_path, capsys, argv, flag):
    assert main(["phase", "--out-dir", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0]


@pytest.mark.parametrize("n_list, message", [
    pytest.param("1,0.5", "need n >= 1 (or inf), got 0.5", id="1,0.5-0.5"),
    pytest.param("1,nan", "need n >= 1 (or inf), got nan", id="1,nan-nan"),
    pytest.param("1,2,-inf", "need n >= 1 (or inf), got -inf", id="1,2,-inf--inf"),
    pytest.param("2,2.0,1", "n = 2 is given more than once", id="2,2.0,1-2"),
])
def test_phase_refuses_a_bad_n_before_writing(tmp_path, capsys, n_list, message):
    out = tmp_path / "phase"
    assert main(["phase", "--n-list", n_list, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not out.exists() or not any(out.iterdir())


def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    def refused(cfg):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(cli, "get_lattice", refused)
    assert main(["gradcheck"]) == cli.EXIT_CHECK_FAILED == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: out of memory: Unable to allocate 298. GiB for an array"]
    assert "Traceback" not in err


def test_phase_point_limit_is_the_grid_length(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "PHASE_MAX_POINTS", 5)
    grid = ["phase", "--out-dir", str(tmp_path), "--m-min", "2", "--m-step", "1", "--n-list", "1"]
    assert main(grid + ["--m-max", "6"]) == 0  # M = 2, 3, 4, 5, 6
    assert len(read_csv(tmp_path / "values_n1.csv")[1]) == 5
    assert main(grid + ["--m-max", "7"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --m-step 1 gives more than 5 M values from --m-min to --m-max"]


def test_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    def interrupted(state, updates, on_step=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(trainer, "run_training", interrupted)
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_tiny(tmp_path)), "--out-dir", str(out)]) == 130
    assert cli.EXIT_INTERRUPTED == 130
    assert capsys.readouterr().err.splitlines() == ["error: interrupted"]
    # the rows recorded before the interrupt are kept
    assert [row[0] for row in read_csv(out / "objective_trace.csv")[1]] == ["0"]
