"""Check that two pmdnet source trees give byte-identical outputs.

    python3 scripts/same_outputs.py OLD_SRC NEW_SRC [--only NAME ...]

OLD_SRC and NEW_SRC are directories that hold the pmdnet package, such as
the src/ of two checkouts.  Every command of COMMANDS runs under each tree,
each in a fresh `python3 -m pmdnet.cli` process whose working directory is
a new empty directory, so `--out-dir out` lands inside it.  The two runs of
a command are the same when they write the same files with the same bytes,
print the same stdout (with the working directory's path replaced by
<cwd>) and the same stderr, and exit with the same code.

Prints one line per command and then a verdict.  Exits 0 when every command
is the same, 1 on any difference, and 2 when a tree holds no pmdnet package
or --only names a command that COMMANDS lacks.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile

# The commands whose outputs a change that claims byte identity must keep:
# (name, arguments to pmdnet).
COMMANDS = (
    ("train", ["train"]),
    ("train-40x40", ["train", "--report-every", "8", "--checkpoint-every", "8",
                     "--override", "lattice.node_dims=40,40",
                     "--override", "lattice.input_window=9,9",
                     "--override", "lattice.neighbourhood_window=7,7",
                     "--override", "lattice.leakage_window=5,5",
                     "--override", f"training.kappa={2.0 * math.pi / 9.0!r}",
                     "--override", "training.updates=24"]),
    ("gradcheck", ["gradcheck"]),
    ("gradcheck-4x4", ["gradcheck",
                       "--override", "lattice.node_dims=4,4",
                       "--override", "lattice.input_window=3,3",
                       "--override", "lattice.neighbourhood_window=3,3",
                       "--override", "lattice.leakage_window=3,3"]),
    ("gradcheck-corrupt", ["gradcheck", "--corrupt"]),
    ("bound-oracle", ["bound-oracle", "--nodes", "20", "--firings", "4", "--samples", "20", "--dim", "4"]),
    ("phase", ["phase"]),
)


def run(src: str, args: list[str]) -> dict:
    """Run pmdnet from src with args in a new empty directory; return every
    file it wrote (path relative to that directory -> bytes), its stdout,
    stderr and exit code."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as cwd:
        done = subprocess.run([sys.executable, "-m", "pmdnet.cli", *args], cwd=cwd, env=env,
                              capture_output=True)
        files = {}
        for root, _, names in os.walk(cwd):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    files[os.path.relpath(path, cwd)] = f.read()
        stdout = done.stdout.replace(os.fsencode(cwd), b"<cwd>")
    return {"files": files, "stdout": stdout, "stderr": done.stderr, "exit code": done.returncode}


def differences(old: dict, new: dict) -> list[str]:
    """What differs between two runs of one command, by name."""
    found = [key for key in ("stdout", "stderr", "exit code") if old[key] != new[key]]
    for path in sorted(old["files"].keys() | new["files"].keys()):
        if path not in new["files"]:
            found.append(f"{path} (old only)")
        elif path not in old["files"]:
            found.append(f"{path} (new only)")
        elif old["files"][path] != new["files"][path]:
            found.append(path)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this command of COMMANDS (repeatable)")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "pmdnet", "cli.py")):
            print(f"error: no pmdnet package under {src}", file=sys.stderr)
            return 2
    unknown = set(args.only or ()) - {name for name, _ in COMMANDS}
    if unknown:
        print(f"error: no command named {', '.join(sorted(unknown))}; "
              f"COMMANDS has {', '.join(name for name, _ in COMMANDS)}", file=sys.stderr)
        return 2
    commands = [(name, cmd) for name, cmd in COMMANDS if not args.only or name in args.only]
    old_src, new_src = (os.path.abspath(src) for src in (args.old_src, args.new_src))
    failed = 0
    for name, cmd in commands:
        old, new = run(old_src, cmd), run(new_src, cmd)
        found = differences(old, new)
        failed += bool(found)
        detail = f"differ: {', '.join(found)}" if found else (
            f"same: {len(old['files'])} files, stdout, stderr, exit code {old['exit code']}")
        print(f"{name:<18} {detail}", flush=True)
    print(f"verdict: {'DIFFERENT' if failed else 'IDENTICAL'} "
          f"({failed} of {len(commands)} commands differ)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
