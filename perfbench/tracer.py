"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

`install` wraps the public functions of every chernrep module (and the
model methods of `TruncatedAlgebra`) in a span recorder.  Each wrapper is
set wherever the function is looked up: modules import one another's
functions by name, so `graded.gamma_series`, `filtration_check.gamma_series`
and `char_ring.gamma_series` must all be replaced.

Not wrapped, so their time is self time of the layer that calls them:
methods of the value types (characters, series, polynomials, generator
expressions, subspaces, signed permutations), which are the arithmetic and
text/JSON formatting, `char_ring.binomial`, which `reduce` calls about
three million times for GL3 at d=5, and the calls `char_ring` makes to its
own `lambda_series` (inside `gamma_series`).
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "parsing", "reps", "char_ring", "graded", "invariants", "weyl", "filtration_check")
SKIP = {"char_ring.binomial"}
# Wrapped only where other modules look them up: gamma_series expands
# lambda_series internally and that expansion is the cost of gamma, so
# char_ring.lambda_series spans the representations built by other layers.
OUTSIDE_ONLY = {"char_ring.lambda_series"}
METHODS = {("filtration_check", "TruncatedAlgebra"): ("reduce", "multiply", "invariant_subspace")}

# Counts taken from a span's arguments or result, stored on the span.
MEASURES = {
    "char_ring.gamma_series": lambda args, out: {"weights_out": sum(len(c.terms) for c in out.coeffs)},
    "graded.symbol_map": lambda args, out: {"terms_out": len(out.terms)},
    "invariants.rewrite": lambda args, out: {"terms_in": len(args[0].terms)},
    "filtration_check.reduce": lambda args, out: {"model_dim": len(out)},
    "filtration_check.orbit_sum_generators": lambda args, out: {"generators": len(out)},
    "filtration_check.verify_prop": lambda args, out: {
        "dim_gamma_S": sum(e.dim_gamma_S for e in out.entries)
    },
}


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, case, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.case = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, out)
            return out

        return traced

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, case, counts in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "case": case}
                rec.update(counts or {})
                f.write(json.dumps(rec) + "\n")


def _targets():
    """(span name, owner, attribute, function) for everything to wrap."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"chernrep.{layer}"]
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in SKIP
            ):
                out.append((name, mod, attr, fn))
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(sys.modules[f"chernrep.{layer}"], cls_name)
        out.extend((f"{layer}.{m}", cls, m, getattr(cls, m)) for m in methods)
    return out


def install(recorder):
    """Wrap every target everywhere chernrep looks it up."""
    import chernrep.cli  # noqa: F401  (loads every layer)

    modules = [m for n, m in sys.modules.items() if n == "chernrep" or n.startswith("chernrep.")]
    for name, owner, attr, fn in _targets():
        wrapper = recorder.wrap(name, fn)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            if name in OUTSIDE_ONLY and mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass.  A span's self time is its
    duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s, calls = {}, {}
    for i, s in enumerate(spans):
        own = s["end"] - s["start"] - child_time[i]
        layer = s["name"].split(".", 1)[0]
        for key in (s["name"], layer):
            self_s[key] = self_s.get(key, 0.0) + own
            calls[key] = calls.get(key, 0) + 1

    def total(name, field):
        return sum(s.get(field, 0) for s in spans if s["name"] == name)

    def under_invariant_subspace(s):
        while s["parent"] >= 0:
            s = spans[s["parent"]]
            if s["name"] == "filtration_check.invariant_subspace":
                return True
        return False

    model_dim = {}
    for s in spans:
        if s["name"] == "filtration_check.reduce":
            model_dim[s["case"]] = s["model_dim"]
    candidates = sum(
        1
        for s in spans
        if s["name"] in ("filtration_check.reduce", "filtration_check.multiply")
        and not under_invariant_subspace(s)
    )
    dims = total("filtration_check.verify_prop", "dim_gamma_S")

    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    m["parsing.calls"] = calls.get("parsing", 0)
    for name in (
        "char_ring.lambda_series",
        "char_ring.gamma_series",
        "char_ring.adams",
        "graded.symbol_map",
        "graded.total_chern",
        "invariants.rewrite",
        "weyl.orbit",
        "filtration_check.reduce",
        "filtration_check.multiply",
        "filtration_check.invariant_subspace",
        "filtration_check.verify_prop",
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    m["char_ring.gamma_series.weights_out"] = total("char_ring.gamma_series", "weights_out")
    m["graded.symbol_map.terms_out"] = total("graded.symbol_map", "terms_out")
    m["invariants.rewrite.terms_in"] = total("invariants.rewrite", "terms_in")
    m["filtration_check.model_dim"] = sum(model_dim.values())
    m["filtration_check.generators"] = total("filtration_check.orbit_sum_generators", "generators")
    m["filtration_check.candidates"] = candidates
    m["filtration_check.useful_ratio"] = dims / candidates if candidates else 0.0
    m["trace.spans"] = len(spans)
    return m
