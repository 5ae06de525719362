"""In-memory spans around the calls into each `gla` module.

Spans are recorded from the benchmark's own code: `Tracer.install` replaces
selected public functions of the package with wrappers, in every `gla`
module namespace that bound them (so the names `gla.cli` and
`gla.evaluation` imported are wrapped too), and wraps the `__post_init__`
of the value classes so that every table and simplex validation is seen.
Nothing in the package itself changes.

A span is (name, layer, start, end, parent, pass id).  A layer's self time
is the duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

LAYERS = (
    "cli",
    "io_formats",
    "synthlab",
    "prior_estimation",
    "ensemble",
    "evaluation",
    "numerics",
)

# Public entry points per layer.  Per-element helpers such as
# `io_formats.format_float` are left out: wrapping them would measure the
# tracer rather than the program.
CALLS = {
    "cli": ("main",),
    "io_formats": (
        "save_logits",
        "load_logits",
        "save_prior",
        "load_prior",
        "save_report",
        "load_run_config",
        "save_study_csv",
    ),
    "synthlab": ("make_task", "sample_batch", "sample_shots", "class_log_likelihoods"),
    "prior_estimation": (
        "build_transition_matrix",
        "power_iterate",
        "estimate_prior_m1",
        "estimate_prior_m2",
        "estimate_prior_naive",
        "m2_error_bound",
    ),
    "ensemble": ("gla_combine", "alpha_mix", "debias_zero_shot", "logit_adjust", "naive_ensemble"),
    "evaluation": (
        "breakdown_report",
        "run_convergence_study",
        "top1_error",
        "per_class_accuracy",
        "balanced_error",
        "breakdown_groups",
    ),
    "numerics": ("log_prior", "l1_distance", "softmax_matrix", "project_to_simplex", "argmax_rows"),
}
VALUE_CLASSES = ("LogitTable", "LabelledLogits", "ProbabilitySimplex")


class Tracer:
    """Records spans while `active`; `observers` see every wrapped call."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, pass id]
        self.pass_id = None
        self.active = False
        self._stack = []
        # span name -> callable(args, kwargs, result), for counters
        self.observers = {}

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        if not self.active:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, layer, time.perf_counter(), None, parent, self.pass_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name, layer):
                result = fn(*args, **kwargs)
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every listed call wherever a `gla` module bound it."""
        modules = [importlib.import_module("gla")] + [
            importlib.import_module(f"gla.{layer}") for layer in LAYERS
        ]
        for layer, names in CALLS.items():
            home = importlib.import_module(f"gla.{layer}")
            for short in names:
                original = getattr(home, short)
                wrapped = self._wrap(original, f"{layer}.{short}", layer)
                for module in modules:
                    if getattr(module, short, None) is original:
                        setattr(module, short, wrapped)
        numerics = importlib.import_module("gla.numerics")
        for cls_name in VALUE_CLASSES:
            cls = getattr(numerics, cls_name)
            cls.__post_init__ = self._wrap(cls.__post_init__, f"numerics.{cls_name}", "numerics")

    # -- reports -----------------------------------------------------------

    def self_times(self, pass_id) -> dict:
        """Seconds of self time per layer within one pass."""
        totals = {layer: 0.0 for layer in LAYERS}
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, pid in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, layer, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id and layer in totals:
                totals[layer] += (end - start) - child_time[i]
        return totals

    def inclusive(self, pass_id, names) -> float:
        """Seconds spent in the outermost calls to any of `names`."""
        names = set(names)
        total = 0.0
        for name, layer, start, end, parent, pid in self.spans:
            if pid != pass_id or name not in names:
                continue
            if parent is not None and self._has_ancestor(parent, names):
                continue
            total += end - start
        return total

    def _has_ancestor(self, index, names) -> bool:
        while index is not None:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][4]
        return False

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, pid) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "layer": layer,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                            "pass": pid,
                        }
                    )
                    + "\n"
                )
