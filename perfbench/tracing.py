"""In-memory span tracing around the public functions of pmdnet.

The tracer replaces each listed function, wherever a pmdnet module binds it,
with a wrapper that records one span per call: name, start, end and the span
that was open when the call began.  Spans stay in memory and are written
once, when the run ends.  Nothing inside ``src/`` is edited: the wrappers
are installed from here and removed again by ``uninstall``.

A function that a later version of the program removes or renames is
reported as absent; its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from time import perf_counter

# (layer, attribute path in that layer's module, metric name)
LAYER_FUNCTIONS = (
    ("lattice", "get_lattice", "get_lattice"),
    ("lattice", "build_leakage", "build_leakage"),
    ("lattice", "Lattice.gather", "gather"),
    ("lattice", "Lattice.scatter_rows", "scatter_rows"),
    ("lattice", "LeakageMatrix.apply", "leakage_apply"),
    ("lattice", "LeakageMatrix.apply_transpose", "leakage_apply_transpose"),
    ("activation", "stable_sigmoid", "stable_sigmoid"),
    ("activation", "activities", "activities"),
    ("activation", "window_denominators", "window_denominators"),
    ("activation", "localized_posterior_rows", "localized_posterior_rows"),
    ("gradients", "build_state", "build_state"),
    ("gradients", "gradient_set_from_states", "gradient_set_from_states"),
    ("gradients", "all_gradients", "all_gradients"),
    ("gradients", "finite_difference_check", "finite_difference_check"),
    ("objective", "compute_D1_D2", "compute_D1_D2"),
    ("objective", "compute_D_exact", "compute_D_exact"),
    ("datagen", "gen_1d", "gen_1d"),
    ("datagen", "gen_2d", "gen_2d"),
    ("trainer", "new_state", "new_state"),
    ("trainer", "run_training", "run_training"),
    ("trainer", "next_vector", "next_vector"),
    ("trainer", "train_step", "train_step"),
    ("trainer", "adapt_rates", "adapt_rates"),
    ("trainer", "heldout_samples", "heldout_samples"),
    ("trainer", "heldout_objective", "heldout_objective"),
    ("trainer", "dominance", "dominance"),
    ("trainer", "checkpoint_save", "checkpoint_save"),
    ("trainer", "checkpoint_load", "checkpoint_load"),
    ("analytic", "value_table", "value_table"),
    ("analytic", "phase_diagram", "phase_diagram"),
    ("analytic", "describe_crossovers", "describe_crossovers"),
    ("cli", "load_run_config", "load_run_config"),
    ("cli", "main", "main"),
    ("cli", "cmd_gradcheck", "cmd_gradcheck"),
    ("cli", "cmd_phase", "cmd_phase"),
    ("cli", "cmd_bound_oracle", "cmd_bound_oracle"),
)

# Exact work counts, taken from the arguments or results of one call.
COUNT_METRICS = (
    "gradients.build_state.state_bytes",
    "trainer.checkpoint_save.bytes",
    "objective.compute_D1_D2.samples",
    "objective.compute_D_exact.tuples",
    "gradients.finite_difference_check.components",
)

# Median inclusive time of these calls during set-up is reported as
# <name>.ms.  The last two run only in set-up, so they get no pass metrics.
SETUP_FUNCTIONS = ("lattice.get_lattice", "cli.load_run_config",
                   "trainer.new_state", "trainer.heldout_samples")
SETUP_ONLY = frozenset({"trainer.new_state", "trainer.heldout_samples"})


def _array_bytes(obj) -> int:
    """Bytes held by numpy arrays and scipy sparse arrays among obj's fields."""
    total = 0
    for value in vars(obj).values():
        nbytes = getattr(value, "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
        elif hasattr(value, "indptr"):  # scipy compressed sparse array
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return total


def _count_state_bytes(args, kwargs, result):
    return "gradients.build_state.state_bytes", _array_bytes(result)


def _count_checkpoint_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return "trainer.checkpoint_save.bytes", os.path.getsize(path)


def _count_samples(args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    return "objective.compute_D1_D2.samples", int(samples.vectors.shape[0])


def _count_tuples(args, kwargs, result):
    # posterior (S, M) or pair joint (S, M, M): M^n tuples either way
    table = args[1] if len(args) > 1 else kwargs.get("posterior", kwargs.get("joint"))
    n = args[2] if len(args) > 2 else kwargs.get("n", 1)
    return "objective.compute_D_exact.tuples", int(table.shape[1]) ** int(n)


def _count_components(args, kwargs, result):
    return "gradients.finite_difference_check.components", len(result.entries)


COUNTERS = {
    "gradients.build_state": _count_state_bytes,
    "trainer.checkpoint_save": _count_checkpoint_bytes,
    "objective.compute_D1_D2": _count_samples,
    "objective.compute_D_exact": _count_tuples,
    "gradients.finite_difference_check": _count_components,
}

# Sizes are the largest of one pass (the memory a pass needs at once); the
# other counts add up over a pass.
SIZE_COUNTS = frozenset({"gradients.build_state.state_bytes", "trainer.checkpoint_save.bytes"})


class Tracer:
    """Records spans of wrapped calls, grouped into passes.

    A pass is one repetition of a workload's fixed work; set-up is recorded
    under the pass label "setup".  Spans are tuples
    (pass, span_id, parent_id, name, start, end) with parent_id -1 at the
    top level; all spans of one run share ``run_id``.
    """

    def __init__(self, package, run_id: str, only: tuple[str, ...] | None = None):
        self.package = package
        self.run_id = run_id
        self.only = only
        self.spans: list[tuple] = []
        self.counts: dict[tuple, list[int]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._pass = "setup"
        self._patched: list[tuple] = []

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package.__name__
                                         or name.startswith(self.package.__name__ + "."))]
        for layer, path, metric in LAYER_FUNCTIONS:
            name = f"{layer}.{metric}"
            if self.only is not None and name not in self.only:
                continue
            owner = sys.modules.get(f"{self.package.__name__}.{layer}")
            parts = path.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except AttributeError:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(parts) > 1:  # method: patch the class attribute only
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self._pass, span_id, parent, name, start, end))
            if counter is not None:
                try:
                    key, value = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    return result  # the signature changed: the count reads 0
                self.counts.setdefault((self._pass, key), []).append(value)
            return result

        return wrapper

    def begin(self, label) -> None:
        """Attribute the following spans to pass ``label``."""
        self._pass = label

    # -- reading --------------------------------------------------------
    def durations(self, name: str, label=None) -> list[float]:
        return [s[5] - s[4] for s in self.spans
                if s[3] == name and (label is None or s[0] == label)]

    def pass_summary(self, label) -> dict:
        """Per-function calls, self seconds and inclusive durations of one
        pass, plus the seconds covered by top-level spans."""
        spans = [s for s in self.spans if s[0] == label]
        child_time: dict[int, float] = {}
        for s in spans:
            if s[2] >= 0:
                child_time[s[2]] = child_time.get(s[2], 0.0) + (s[5] - s[4])
        out: dict[str, dict] = {}
        top = 0.0
        for s in spans:
            dur = s[5] - s[4]
            entry = out.setdefault(s[3], {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += dur - child_time.get(s[1], 0.0)
            entry["durations"].append(dur)
            if s[2] < 0:
                top += dur
        counts = {}
        for (pass_label, key), values in self.counts.items():
            if pass_label == label:
                counts[key] = values
        return {"functions": out, "top_level_s": top, "counts": counts}

    def write(self, path: str) -> None:
        """Write all spans as JSON lines, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id,
                                 "fields": ["pass", "span", "parent", "name", "start_s", "end_s"],
                                 "absent": self.absent}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[0], s[1], s[2], s[3], round(s[4], 9), round(s[5], 9)]) + "\n")


def per_layer_metrics(tracer: Tracer, pass_labels: list, pass_seconds: dict,
                      untraced_run_s: float, traced_run_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced passes.

    calls and the counts are per pass and must repeat exactly across
    passes; self_ms is the median over passes; ms_p50 is the median
    inclusive duration of one call over all passes.  Returns the metric
    dict and a list of problems (counts that did not repeat).
    """
    summaries = [tracer.pass_summary(label) for label in pass_labels]
    metrics: dict[str, dict] = {}
    problems: list[str] = []

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer, _path, metric in LAYER_FUNCTIONS:
        name = f"{layer}.{metric}"
        if name in SETUP_ONLY:
            continue
        per_pass = [s["functions"].get(name) for s in summaries]
        calls = [p["calls"] if p else 0 for p in per_pass]
        if len(set(calls)) > 1:
            problems.append(f"{name}.calls differs across passes: {calls}")
        durations = [d for p in per_pass if p for d in p["durations"]]
        put(f"{name}.calls", calls[0] if calls else 0, "count")
        put(f"{name}.self_ms",
            statistics.median(p["self_s"] * 1e3 if p else 0.0 for p in per_pass) if per_pass else 0.0,
            "ms")
        put(f"{name}.ms_p50", statistics.median(durations) * 1e3 if durations else 0.0, "ms")

    for key in COUNT_METRICS:
        per_pass = []
        for s in summaries:
            values = s["counts"].get(key, [])
            per_pass.append(max(values, default=0) if key in SIZE_COUNTS else sum(values))
        if len(set(per_pass)) > 1:
            problems.append(f"{key} differs across passes: {per_pass}")
        put(key, per_pass[0] if per_pass else 0, "count" if not key.endswith("bytes") else "bytes")

    for name in SETUP_FUNCTIONS:
        durations = tracer.durations(name, "setup")
        put(f"{name}.ms", statistics.median(durations) * 1e3 if durations else 0.0, "ms")

    unattributed = [pass_seconds[label] - s["top_level_s"] for label, s in zip(pass_labels, summaries)]
    put("bench.unattributed_ms", statistics.median(unattributed) * 1e3, "ms")
    put("bench.tracing_overhead_s", traced_run_s - untraced_run_s, "s")
    return metrics, problems

