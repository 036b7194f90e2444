"""The benchmark's per-layer attribution names functions that exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    # the tracer reports a function it cannot find as absent and reads its
    # per-layer metrics as 0, so a rename in pmdnet must fail here instead
    missing = []
    for layer, path, _metric in load_tracing().LAYER_FUNCTIONS:
        owner = importlib.import_module(f"pmdnet.{layer}")
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{layer}.{path}")
            continue
        assert callable(owner), f"{layer}.{path}"
    assert missing == []
