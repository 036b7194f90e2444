"""scripts/same_outputs.py: two source trees, each command in fresh processes."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

# the cheapest commands of the list: one writes no file, the other four
REDUCED = ["--only", "gradcheck", "--only", "phase"]


def test_a_tree_against_itself_is_identical(capsys):
    assert same_outputs.main([str(SRC), str(SRC), *REDUCED]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["gradcheck          same: 0 files, stdout, stderr, exit code 0",
                     "phase              same: 4 files, stdout, stderr, exit code 0",
                     "verdict: IDENTICAL (0 of 2 commands differ)"]


def test_a_changed_constant_differs_only_where_it_is_read(tmp_path, capsys):
    # FD_STEP is read by gradcheck alone: its report changes, phase's files do not
    changed = tmp_path / "src"
    shutil.copytree(SRC / "pmdnet", changed / "pmdnet", ignore=shutil.ignore_patterns("__pycache__"))
    gradients = changed / "pmdnet" / "gradients.py"
    text = gradients.read_text()
    assert text.count("\nFD_STEP = 1e-5 ") == 1
    gradients.write_text(text.replace("\nFD_STEP = 1e-5 ", "\nFD_STEP = 2e-5 "))
    assert same_outputs.main([str(SRC), str(changed), *REDUCED]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["gradcheck          differ: stdout",
                     "phase              same: 4 files, stdout, stderr, exit code 0",
                     "verdict: DIFFERENT (1 of 2 commands differ)"]


def test_an_unknown_command_or_tree_exits_2(tmp_path, capsys):
    assert same_outputs.main([str(SRC), str(SRC), "--only", "gradcheck-8x8"]) == 2
    assert same_outputs.main([str(SRC), str(tmp_path), *REDUCED]) == 2
    err = capsys.readouterr().err
    assert "no command named gradcheck-8x8" in err and f"no pmdnet package under {tmp_path}" in err
