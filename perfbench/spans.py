"""Outside-in tracing: wrappers on the library's module attributes.

A wrapper is installed on every attribute of a loaded `dofbc` module that is
the traced function object, so each caller's own lookup (for example
`dofbc.verifier.realize_plan` inside `achieved_dof`, or
`dofbc.schemes.apzf_precoder` inside a precoder recipe) records a span. GF(p)
kernels are named after the module that calls them
(`gf.gf_rank.from_precoding`), because the precoder and the verifier use
them for different jobs. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED = (
    ("precoding", "apzf_precoder"),
    ("verifier", "decodability_check"),
    ("verifier", "realize_plan"),
    ("verifier", "csit_compliance"),
    ("verifier", "achieved_dof"),
    ("verifier", "rate_slope_estimate"),
    ("channel", "field_channel"),
    ("channel", "sample_channel"),
    ("region", "region_constraints"),
    ("region", "region_vertices"),
    ("region", "achievable_region"),
    ("region", "sum_dof_upper"),
    ("region", "sum_dof_lower"),
    ("schemes", "select_scheme"),
    ("cli", "simulate_document"),
    ("cli", "region_document"),
)
GF_TRACED = ("gf_rank", "gf_solve", "gf_matmul", "gf_particular_solution")
GF_CALLERS = ("precoding", "verifier")


def _cells(args, kwargs, result):
    return int(np.size(args[0]))


# A number to keep per span, read from the call's arguments or result.
SPAN_MEASURES = {
    "gf_rank": _cells,
    "gf_solve": _cells,
    "verifier.achieved_dof": lambda args, kwargs, result: result.trials,
    "verifier.rate_slope_estimate": lambda args, kwargs, result: result.discarded,
}

REPORTED_SPANS = (
    ["precoding.apzf_precoder"]
    + [f"gf.{fn}.from_{caller}" for caller in GF_CALLERS for fn in GF_TRACED
       if not (caller == "verifier" and fn == "gf_particular_solution")]
    + [f"{module}.{fn}" for module, fn in TRACED if module != "precoding"]
)


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for span in REPORTED_SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
        if span == "precoding.apzf_precoder":
            names.append(f"{span}.resample_raises")
        if span.startswith(("gf.gf_rank.", "gf.gf_solve.")):
            names.append(f"{span}.cells")
        if span == "verifier.achieved_dof":
            names.append("verifier.trial_yield")
        if span == "verifier.rate_slope_estimate":
            names.append(f"{span}.discarded")
    return names + ["trace_overhead"]


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit."""
    units = {}
    for name in per_layer_names():
        if name.endswith(".self_s"):
            units[name] = "s"
        elif name in ("verifier.trial_yield", "trace_overhead"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


class Tracer:
    """Installs span-recording wrappers and restores the original objects.

    A span is `[name, start, end, parent, op, error, measure]`: `parent` is
    the index of the enclosing span (-1 at the root), `op` the op id set by
    the caller, `error` the exception type name if the call raised.
    """

    def __init__(self, package: str = "dofbc"):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        modules = {
            name[len(package) + 1 :] or package: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        }
        for short, fn in TRACED:
            original = getattr(modules.get(short), fn, None)
            if original is None:
                self.missing.append(f"{short}.{fn}")
                continue
            for module in modules.values():
                self._patch_aliases(module, original, f"{short}.{fn}")
        gf = modules.get("gf")
        for fn in GF_TRACED:
            original = getattr(gf, fn, None)
            if original is None:
                self.missing.append(f"gf.{fn}")
                continue
            for caller, module in modules.items():
                if module is not gf and caller != package:
                    self._patch_aliases(module, original, f"gf.{fn}.from_{caller}", fn)

    def _patch_aliases(self, module, original, name: str, kind: str | None = None):
        for attr, value in list(vars(module).items()):
            if value is original:
                wrapper = self._wrap(original, name, SPAN_MEASURES.get(kind or name))
                self._patches.append((module, attr, original, wrapper))

    def _wrap(self, fn, name: str, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[6] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self, op: int):
        self.op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")

    @property
    def patched(self) -> list[tuple[str, str]]:
        return [(module.__name__, attr) for module, attr, _, _ in self._patches]

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counts per span name (self = own minus children)."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        measured = defaultdict(int)
        errors = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        draws_in_certification = 0
        for i, (name, start, end, parent, _, error, value) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if value is not None:
                measured[name] += value
            if error == "ResampleRequiredError":
                errors[name] += 1
            if name == "channel.field_channel" and parent >= 0:
                draws_in_certification += self.spans[parent][0] == "verifier.achieved_dof"
        trials = measured["verifier.achieved_dof"]
        out: dict[str, float] = {}
        for name in per_layer_names():
            span, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls[span]
            elif stat == "self_s":
                out[name] = self_s[span]
            elif stat == "resample_raises":
                out[name] = errors[span]
            elif stat in ("cells", "discarded"):
                out[name] = measured[span]
        out["verifier.trial_yield"] = trials / draws_in_certification if draws_in_certification else 0.0
        return out

    def write(self, path):
        """Write the spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "op", "error", "measure")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
